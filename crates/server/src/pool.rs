//! The elastic shared worker pool: jobs decompose into *units* on one
//! queue.
//!
//! The fixed job-per-worker pool bound one whole job to one long-lived
//! thread — a single saturating job monopolized its worker while siblings
//! idled. Here admission decomposes every job into **units** (slices of its
//! batch budget, plus cube-seeded subproblem starts for large instances,
//! planned once by [`decompose`]), all queued on one pool-wide queue:
//!
//! - an idle worker takes the most urgent queued unit (priority first, then
//!   units of jobs that have not started yet, then earliest deadline, then
//!   FIFO — so one job's units keep their admission order);
//! - units of the same job share an **incumbent broadcast**: every
//!   improving solution is published to the [`JobRecord`], and a freshly
//!   dispatched unit warm-starts from the job's current best instead of
//!   from scratch;
//! - a running unit *yields* its remainder as a continuation unit when a
//!   strictly higher-priority unit is waiting and no worker is free — the
//!   one re-plan made mid-run, so a one-unit job is the sequential run
//!   unless it yields;
//! - cancel revokes all queued units of the job, and a unit popped after
//!   its job's deadline passed re-checks the deadline (stale-deadline
//!   dequeue) so an expired job reports `expired` without burning pool
//!   time.
//!
//! All scheduling state — the queue, the busy-worker count and the
//! brownout latch — sits in one [`Sched`] behind one mutex, so a pop, an
//! admission check, a yield decision or a gauge read sees one state.
//!
//! A job's terminal phase is the fold of its unit outcomes
//! ([`JobRecord::finish_unit`]); per-unit completion is judged by
//! [`classify`] against the termination each unit actually executed under,
//! so the cancel/expired/done semantics of the one-job-per-worker runtime
//! are preserved exactly.

use crate::chaos::{chaos_hit, FaultPlan, FaultSite};
use crate::job::{JobRecord, UnitEnd, QUARANTINE_PANIC_THRESHOLD};
use crate::obs::{pool_obs, TimelineKind};
use crate::spec::{now_unix_ms, JobSpec, MAX_UNITS_PER_JOB};
use dabs_core::{Incumbent, IncumbentObserver, SolveResult, Termination, UnitOutcome, WarmStart};
use dabs_model::{IncrementalState, QuboModel, Solution};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::job::JobPhase;

/// Why [`ElasticPool::submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity.
    Full { capacity: usize },
    /// `deadline_unix_ms` is not in the future.
    PastDeadline { late_by_ms: u64 },
    /// The queue was closed (server shutting down).
    Closed,
    /// Brownout: the pool is shedding low-priority load and this job was
    /// refused (or evicted from the queue) to protect higher-priority work.
    Shed,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Full { capacity } => {
                write!(f, "queue full ({capacity} jobs waiting)")
            }
            AdmissionError::PastDeadline { late_by_ms } => {
                write!(f, "deadline already passed {late_by_ms} ms ago")
            }
            AdmissionError::Closed => write!(f, "server is shutting down"),
            AdmissionError::Shed => {
                write!(f, "shed under overload brownout; retry with backoff")
            }
        }
    }
}

/// Smallest batch budget worth decomposing: below this, per-unit setup
/// (model build amortization aside, pool fills and RNG seeding) dominates,
/// and single-unit jobs keep the sequential runtime bit-identical to the
/// offline reference.
pub const MIN_UNIT_BATCHES: u64 = 100;

/// Batches a unit runs between yield checks. Cancellation does not wait
/// for a quantum boundary — the stop flag is checked before every batch
/// inside the solver.
const YIELD_QUANTUM: u64 = 32;

/// A unit will not yield below this remaining budget, so a continuation
/// unit never has an empty budget.
const MIN_YIELD_BATCHES: u64 = 64;

/// How often the supervisor scans for dead worker threads.
const SUPERVISE_TICK: Duration = Duration::from_millis(10);

/// Cube seeding kicks in at this instance size (known-`n` problems only).
const CUBE_MIN_N: usize = 128;

/// Number of highest-|Δ| bits enumerated by cube seeding (2^k seed units).
const CUBE_BITS: u32 = 2;

/// A unit runs its devices side by side only while its batches so far
/// average at least this long. Committing in order parks and wakes a unit
/// thread about once per overlapped batch, 6–9 µs of wake-up each on a
/// 2-vCPU host; below this the overlap saves less wall time than it burns
/// in CPU.
const MIN_OVERLAP_BATCH: Duration = Duration::from_micros(50);

/// Batches a unit with a thread share runs on one thread before its first
/// [`MIN_OVERLAP_BATCH`] judgement: enough to average over a few batches
/// per device, few enough that long-batch units overlap almost at once.
const PROBE_BATCHES: u64 = 8;

/// Threads each running unit may use: the host's cores split evenly over
/// `workers`, at least one. A unit runs at most one thread per device
/// ([`UnitRun::set_threads`](dabs_core::UnitRun::set_threads) keeps its
/// result bit-identical at any count).
fn unit_thread_share(workers: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    (cores / workers.max(1)).max(1)
}

/// What one unit executes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum UnitWork {
    /// A slice of the job's sequential batch budget (`None` = bounded by
    /// the job's time window / target only).
    Slice { batches: Option<u64> },
    /// A slice that starts from assignment `index` of the `CUBE_BITS`
    /// highest-|Δ| bits instead of the shared incumbent — cube-and-conquer
    /// style diversification for large instances.
    Cube { index: u32, batches: Option<u64> },
}

/// One queued unit.
#[derive(Debug, Clone)]
struct UnitTask {
    record: Arc<JobRecord>,
    work: UnitWork,
    priority: i32,
    deadline_unix_ms: Option<u64>,
    /// Pool-wide admission order; lower = earlier (FIFO tie-break).
    seq: u64,
    /// When this unit entered the queue — the origin of its queue-wait
    /// measurement. A yield continuation resets it at re-enqueue.
    enqueued_at: Instant,
}

impl UnitTask {
    /// Pop-order key, greater = more urgent: priority first, then units
    /// of jobs that have not executed anything yet (a fresh small job beats
    /// the tail of a saturating one), then nearest deadline, then FIFO.
    fn urgency(&self) -> (i32, bool, std::cmp::Reverse<u64>, std::cmp::Reverse<u64>) {
        let fresh = self.record.unit_counts().1 == 0;
        (
            self.priority,
            fresh,
            std::cmp::Reverse(self.deadline_unix_ms.unwrap_or(u64::MAX)),
            std::cmp::Reverse(self.seq),
        )
    }
}

/// Pool occupancy/throughput counters, exposed through the `stats`
/// protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolGauges {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Threads each running unit may use (the host's cores over
    /// `workers`, at least one; a unit uses at most one per device).
    pub unit_threads: u64,
    /// Workers currently executing a unit.
    pub busy: u64,
    /// Units waiting in the queue.
    pub queued_units: u64,
    /// Continuation units minted by priority yields (the `stats` reply's
    /// `splits`).
    pub yields: u64,
    /// Dead worker threads respawned by the supervisor.
    pub worker_restarts: u64,
    /// Queued units evicted by overload brownout.
    pub shed_units: u64,
    /// Whether the pool is currently in brownout (shedding low-priority
    /// load; clears once the queue drains below half capacity).
    pub brownout: bool,
}

/// The pool's scheduling state, all behind [`PoolShared::sched`].
#[derive(Debug)]
struct Sched {
    queue: Vec<UnitTask>,
    next_seq: u64,
    closed: bool,
    /// Workers executing a unit: counted at the pop, released when the
    /// unit has ended.
    busy: usize,
    /// Overload brownout latch: set when a shed happens, cleared by the
    /// first pop that leaves the queue below half capacity. While set,
    /// victim-less full rejections are reported as `Shed` so clients back
    /// off.
    brownout: bool,
}

#[derive(Debug)]
struct PoolShared {
    sched: Mutex<Sched>,
    available: Condvar,
    capacity: usize,
    workers: usize,
    yields: AtomicU64,
    restarts: AtomicU64,
    shed: AtomicU64,
    /// Fault-injection plan (`None` in production — the hooks cost one
    /// branch on a `None` option).
    chaos: Option<Arc<FaultPlan>>,
}

impl PoolShared {
    /// The scheduler lock, recovering from poisoning: every mutation under
    /// it is a single push/remove or counter step that leaves the state
    /// structurally intact, so when a worker thread dies mid-section the
    /// survivors take the guard back instead of cascading the panic
    /// pool-wide. The death itself stays supervisor-visible through the
    /// dead thread's handle.
    fn lock_sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue a priority yield's continuation unit.
    fn push_unit(&self, task: UnitTask) {
        self.lock_sched().queue.push(task);
        pool_obs().enqueued.inc();
        self.available.notify_all();
    }

    /// Should a running unit of priority `than` yield? Only when no worker
    /// is idle to take the waiting work and a strictly higher-priority unit
    /// is queued.
    fn should_yield(&self, than: i32) -> bool {
        let s = self.lock_sched();
        s.busy >= self.workers && s.queue.iter().any(|t| t.priority > than)
    }
}

/// The elastic pool: `W` supervised worker threads over one unit queue.
#[derive(Debug)]
pub struct ElasticPool {
    shared: Arc<PoolShared>,
    /// One slot per worker index; the supervisor swaps fresh handles in on
    /// respawn. `None` only transiently during a respawn or after `join`.
    slots: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl ElasticPool {
    /// Spawn `workers` threads; at most `capacity` units may be queued.
    pub fn spawn(workers: usize, capacity: usize) -> Self {
        Self::spawn_with_chaos(workers, capacity, None)
    }

    /// [`ElasticPool::spawn`] with a fault-injection plan threaded into the
    /// workers' chaos hooks (tests and `serve --chaos`).
    pub fn spawn_with_chaos(
        workers: usize,
        capacity: usize,
        chaos: Option<Arc<FaultPlan>>,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(Sched {
                queue: Vec::new(),
                next_seq: 0,
                closed: false,
                busy: 0,
                brownout: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            workers,
            yields: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            chaos,
        });
        let slots: Arc<Mutex<Vec<Option<JoinHandle<()>>>>> = Arc::new(Mutex::new(
            (0..workers)
                .map(|i| Some(spawn_worker(&shared, i)))
                .collect(),
        ));
        let supervisor = {
            let shared = Arc::clone(&shared);
            let slots = Arc::clone(&slots);
            std::thread::Builder::new()
                .name("dabs-pool-supervisor".into())
                .spawn(move || supervisor_loop(&shared, &slots))
                .expect("spawn supervisor thread")
        };
        Self {
            shared,
            slots,
            supervisor: Mutex::new(Some(supervisor)),
        }
    }

    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Worker threads currently alive. Supervision heals this back to
    /// [`ElasticPool::workers`] within a tick of any worker death.
    pub fn live_workers(&self) -> usize {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|h| !h.is_finished()))
            .count()
    }

    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Occupancy and throughput counters.
    pub fn gauges(&self) -> PoolGauges {
        let s = self.shared.lock_sched();
        PoolGauges {
            workers: self.shared.workers as u64,
            unit_threads: unit_thread_share(self.shared.workers) as u64,
            busy: s.busy as u64,
            queued_units: s.queue.len() as u64,
            yields: self.shared.yields.load(Ordering::Relaxed),
            worker_restarts: self.shared.restarts.load(Ordering::Relaxed),
            shed_units: self.shared.shed.load(Ordering::Relaxed),
            brownout: s.brownout,
        }
    }

    /// Admit one job: decompose it into units and queue them. Capacity
    /// counts *units*, so a wide job cannot starve admission accounting.
    pub fn submit(&self, record: &Arc<JobRecord>) -> Result<(), AdmissionError> {
        if let Some(deadline) = record.spec.deadline_unix_ms {
            let now = now_unix_ms();
            if now >= deadline {
                return Err(AdmissionError::PastDeadline {
                    late_by_ms: now - deadline,
                });
            }
        }
        let works = decompose(&record.spec, self.shared.workers);
        {
            let mut s = self.shared.lock_sched();
            if s.closed {
                return Err(AdmissionError::Closed);
            }
            // Overload brownout: when the queue is full, shed strictly
            // lower-priority queued jobs (whole jobs, lowest priority first)
            // to make room. A victim-less full rejection while the brownout
            // latch is set comes back as `Shed` so clients back off instead
            // of hammering a saturated pool.
            while s.queue.len() + works.len() > self.shared.capacity {
                if !shed_one_lower(&self.shared, &mut s, record.spec.priority) {
                    return Err(if s.brownout {
                        AdmissionError::Shed
                    } else {
                        AdmissionError::Full {
                            capacity: self.shared.capacity,
                        }
                    });
                }
            }
            record.plan_units(works.len() as u32);
            for work in works {
                let seq = s.next_seq;
                s.next_seq += 1;
                s.queue.push(UnitTask {
                    record: Arc::clone(record),
                    work,
                    priority: record.spec.priority,
                    deadline_unix_ms: record.spec.deadline_unix_ms,
                    seq,
                    enqueued_at: Instant::now(),
                });
                pool_obs().enqueued.inc();
            }
        }
        self.shared.available.notify_all();
        Ok(())
    }

    /// Graceful shutdown, phase 1: refuse new work and stop dispatching —
    /// workers *drain* every still-queued unit in revoked mode (no
    /// execution), so each partially-run job folds to `cancelled` with its
    /// best-so-far incumbent attached. Running units observe their job's
    /// stop flag (trip it via `JobRegistry::stop_all`) at the next batch.
    pub fn close(&self) {
        self.shared.lock_sched().closed = true;
        self.shared.available.notify_all();
    }

    /// Phase 2: wait for the supervisor and every worker to exit (call
    /// [`ElasticPool::close`] first). Idempotent; callable through a shared
    /// handle.
    pub fn join(&self) {
        let supervisor = self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = supervisor {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            slots.iter_mut().filter_map(Option::take).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn spawn_worker(shared: &Arc<PoolShared>, i: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("dabs-worker-{i}"))
        .spawn(move || worker_loop(&shared, i))
        .expect("spawn worker thread")
}

/// The supervisor tick: scan the worker slots, join any thread that died
/// (chaos kill, or a panic that escaped containment), and respawn its slot.
/// Voluntary exits — the pool is closed and drained — are left for `join`.
fn supervisor_loop(shared: &Arc<PoolShared>, slots: &Arc<Mutex<Vec<Option<JoinHandle<()>>>>>) {
    loop {
        if shared.lock_sched().closed {
            return;
        }
        std::thread::sleep(SUPERVISE_TICK);
        let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
        for (i, slot) in guard.iter_mut().enumerate() {
            if !slot.as_ref().is_some_and(|h| h.is_finished()) {
                continue;
            }
            if shared.lock_sched().closed {
                return;
            }
            if let Some(h) = slot.take() {
                let _ = h.join();
            }
            shared.restarts.fetch_add(1, Ordering::Relaxed);
            pool_obs().worker_restarts.inc();
            *slot = Some(spawn_worker(shared, i));
        }
    }
}

/// Evict every queued unit of one brownout victim: the lowest-priority job
/// strictly below `than` that has not started executing. The victim fails
/// terminally with a `shed` error (its client can retry with backoff) and
/// the brownout latch is set. Returns `false` when no victim exists.
fn shed_one_lower(shared: &PoolShared, s: &mut Sched, than: i32) -> bool {
    let victim = s
        .queue
        .iter()
        .filter(|t| {
            t.priority < than && t.record.unit_counts().1 == 0 && !t.record.phase().is_terminal()
        })
        .min_by_key(|t| (t.priority, std::cmp::Reverse(t.seq)))
        .map(|t| Arc::clone(&t.record));
    let Some(victim) = victim else {
        return false;
    };
    let before = s.queue.len();
    s.queue.retain(|t| t.record.id != victim.id);
    let removed = (before - s.queue.len()) as u64;
    shared.shed.fetch_add(removed, Ordering::Relaxed);
    s.brownout = true;
    pool_obs().shed_units.add(removed);
    victim.stop.stop();
    victim.finish(
        JobPhase::Failed,
        None,
        Some("shed under overload brownout".into()),
    );
    removed > 0
}

/// Plan a job's units: each is a slice of the batch budget, the first
/// 2^[`CUBE_BITS`] of a wide job on a large instance starting from a cube
/// corner. The one place a job's units are planned; only a priority yield
/// adds a unit later, and it moves budget rather than minting it.
///
/// - Batch-budget jobs split into at most `workers` even slices, but only
///   once the budget is ≥ 2×[`MIN_UNIT_BATCHES`] — small jobs stay
///   single-unit, which keeps them bit-identical to the offline sequential
///   reference. `spec.units` overrides the width (capped at
///   [`MAX_UNITS_PER_JOB`]).
/// - Large known-`n` instances additionally get cube-seeded units: when the
///   job is ≥ 4 units wide and `n ≥ CUBE_MIN_N`, the first 2^[`CUBE_BITS`]
///   units start from the enumerated assignments of the highest-|Δ| bits.
/// - Time/target-bounded jobs default to one unit (each extra unit would
///   re-run the whole window); `spec.units` opts into parallel arms.
fn decompose(spec: &JobSpec, workers: usize) -> Vec<UnitWork> {
    let width = match (spec.units, spec.max_batches) {
        (Some(u), _) => u as u64,
        (None, Some(b)) => (b / MIN_UNIT_BATCHES).min(workers as u64).max(1),
        (None, None) => 1,
    }
    .clamp(1, u64::from(MAX_UNITS_PER_JOB));
    match spec.max_batches {
        None => (0..width)
            .map(|_| UnitWork::Slice { batches: None })
            .collect(),
        Some(b) => {
            let width = width.min(b.max(1));
            let base = b / width;
            let rem = b % width;
            let cubes = if width >= 4 && spec.problem.n.is_some_and(|n| n >= CUBE_MIN_N) {
                1u64 << CUBE_BITS
            } else {
                0
            };
            (0..width)
                .map(|i| {
                    let batches = Some(base + u64::from(i < rem));
                    if i < cubes {
                        UnitWork::Cube {
                            index: i as u32,
                            batches,
                        }
                    } else {
                        UnitWork::Slice { batches }
                    }
                })
                .collect()
        }
    }
}

/// The start solution for cube unit `index`: the `CUBE_BITS` bits whose
/// zero-state flip deltas have the largest magnitude are set according to
/// the bits of `index`; everything else starts at zero. (A seed-level cube:
/// the bits steer where the unit begins, they are not clamped during the
/// search.)
fn cube_seed(model: &QuboModel, index: u32) -> Solution {
    let n = model.n();
    let state = IncrementalState::new(model);
    let deltas = state.deltas();
    let mut bits: Vec<usize> = (0..n).collect();
    bits.sort_by_key(|&i| (std::cmp::Reverse(deltas[i].unsigned_abs()), i));
    let mut seed = Solution::zeros(n);
    for (j, &bit) in bits.iter().take(CUBE_BITS as usize).enumerate() {
        if (index >> j) & 1 == 1 {
            seed.set(bit, true);
        }
    }
    seed
}

fn worker_loop(shared: &Arc<PoolShared>, me: usize) {
    loop {
        let (task, revoked) = {
            let mut s = shared.lock_sched();
            loop {
                // Most urgent queued unit. The seq tie-break keeps units of
                // one job in admission order, so a single-worker pool folds
                // a job exactly like the sequential reference.
                let chosen = s
                    .queue
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, t)| t.urgency())
                    .map(|(j, _)| j);
                if let Some(j) = chosen {
                    if chaos_hit(&shared.chaos, FaultSite::WorkerKill) {
                        // Simulated worker death: leave the unit queued and
                        // vanish. The supervisor notices the dead slot
                        // within a tick and respawns it; no unit is lost.
                        return;
                    }
                    let t = s.queue.remove(j);
                    s.busy += 1;
                    if s.brownout && s.queue.len() < shared.capacity / 2 {
                        // The queue drained below half capacity: brownout
                        // is over.
                        s.brownout = false;
                    }
                    break (Some(t), s.closed);
                }
                if s.closed {
                    break (None, true);
                }
                s = shared
                    .available
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(task) = task else {
            return; // closed and fully drained
        };
        let queue_wait = task.enqueued_at.elapsed();
        let obs = pool_obs();
        obs.popped.inc();
        obs.queue_wait_us.record(queue_wait.as_micros() as u64);
        run_task(Some((shared, me)), &task, revoked, queue_wait);
        shared.lock_sched().busy -= 1;
    }
}

/// Wire label for a unit's end, used in timelines.
fn end_name(end: UnitEnd) -> &'static str {
    match end {
        UnitEnd::Completed => "completed",
        UnitEnd::Interrupted => "interrupted",
        UnitEnd::Revoked => "revoked",
        UnitEnd::Failed => "failed",
    }
}

/// Execute (or revoke) one popped unit. `pool` is absent when called from
/// the standalone [`execute`] path — no yielding then.
/// `queue_wait` is how long the unit sat in the queue before this pop.
fn run_task(
    pool: Option<(&Arc<PoolShared>, usize)>,
    task: &UnitTask,
    revoked: bool,
    queue_wait: Duration,
) {
    let record = &task.record;
    if record.phase().is_terminal() {
        // Cancelled/expired while this unit sat in the queue; the record is
        // already folded or abandoned — just drop the unit.
        return;
    }
    if record.is_quarantined() {
        // Poison job: refuse execution outright. Each refused unit folds as
        // failed, so the job still reaches its terminal phase.
        pool_obs().revoked.inc();
        record.finish_unit(
            UnitEnd::Failed,
            None,
            Some("job quarantined after repeated unit panics".into()),
        );
        return;
    }
    // Stale-deadline dequeue: a deadline that passed while the unit was
    // queued expires the whole job if nothing ran yet; if siblings already
    // ran, this unit's window is simply gone (counts as completed-empty —
    // the siblings were deadline-clamped themselves).
    if task
        .deadline_unix_ms
        .is_some_and(|deadline| now_unix_ms() >= deadline)
    {
        if record.expire_if_unstarted("deadline passed while queued") {
            pool_obs().expired.inc();
            return;
        }
        record.finish_unit(UnitEnd::Completed, None, None);
        return;
    }
    if revoked || record.cancel_requested() || record.stop.is_stopped() {
        // Shutdown drain, or a cancel/stop that landed while queued: the
        // unit is revoked without execution. (A sibling that reached the
        // target also lands here via the stop broadcast — the fold still
        // reports `done` because the merged result reached the target.)
        pool_obs().revoked.inc();
        record.finish_unit(UnitEnd::Revoked, None, None);
        return;
    }
    let Some(unit) = record.begin_unit() else {
        return; // lost a race with a terminal transition
    };
    record.push_timeline(TimelineKind::UnitStart {
        unit,
        worker: pool.map_or(0, |(_, me)| me as u64),
        queue_wait_us: queue_wait.as_micros() as u64,
    });
    let started = Instant::now();
    // Supervision boundary: a panicking unit must not take its worker (or
    // the whole process) down. The unit folds as failed, and a job whose
    // units keep panicking is quarantined — refused further execution.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_unit(pool.map(|(shared, _)| &**shared), task, unit)
    }));
    if outcome.is_err() {
        pool_obs().unit_panics.inc();
        let panics = record.note_panic();
        if panics >= QUARANTINE_PANIC_THRESHOLD && record.quarantine() {
            pool_obs().quarantined_jobs.inc();
            // Stop running siblings promptly; their interrupted ends
            // still lose to the failed fold.
            record.stop.stop();
        }
        end_unit(
            record,
            unit,
            UnitEnd::Failed,
            0,
            None,
            Some(format!("unit panicked ({panics} panics for this job)")),
        );
    }
    pool_obs()
        .unit_run_us
        .record(started.elapsed().as_micros() as u64);
}

/// Log the unit's end on the job timeline, then fold its outcome into the
/// record. The push must precede the fold: folding the last unit fires the
/// terminal notification (and its `Terminal` timeline event), and clients
/// fetch the timeline as soon as that lands — the terminal event must be
/// the log's final entry.
fn end_unit(
    record: &Arc<JobRecord>,
    unit: u32,
    end: UnitEnd,
    batches: u64,
    out: Option<UnitOutcome>,
    error: Option<String>,
) {
    record.push_timeline(TimelineKind::UnitEnd {
        unit,
        end: end_name(end).to_string(),
        batches,
    });
    record.finish_unit(end, out, error);
}

/// Run one claimed unit to an end and account it on the record.
fn execute_unit(pool: Option<&PoolShared>, task: &UnitTask, ordinal: u32) {
    let record = &task.record;
    if let Some(shared) = pool {
        if chaos_hit(&shared.chaos, FaultSite::UnitStall) {
            let ms = shared.chaos.as_ref().map_or(0, |p| p.stall_ms());
            std::thread::sleep(Duration::from_millis(ms));
        }
        if chaos_hit(&shared.chaos, FaultSite::UnitPanic) {
            // resume_unwind skips the panic hook: an injected panic should
            // exercise the supervision boundary, not spam stderr.
            std::panic::resume_unwind(Box::new("chaos: injected unit panic"));
        }
    }
    let model = match record.model() {
        Ok(m) => m,
        Err(e) => {
            return end_unit(record, ordinal, UnitEnd::Failed, 0, None, Some(e));
        }
    };
    // Each unit searches from its own seed (the first keeps `spec.seed`, so
    // a single-unit job is the offline sequential run).
    let solver = match record.spec.build_solver() {
        Ok(s) => s.for_unit(u64::from(ordinal - 1)),
        Err(e) => {
            return end_unit(record, ordinal, UnitEnd::Failed, 0, None, Some(e));
        }
    };
    let clock = record.unit_clock();

    // The wall-clock window this unit may still use: the job's `time_ms`
    // minus what earlier units already consumed (the window is shared — all
    // units measure from the job's first unit start), clamped to the
    // remaining deadline. A closed window means the job's time is simply
    // up: the unit completes empty and the fold judges the siblings.
    let mut window: Option<Duration> = record
        .spec
        .time_ms
        .map(|ms| Duration::from_millis(ms).saturating_sub(clock.elapsed()));
    if let Some(deadline) = record.spec.deadline_unix_ms {
        let left = Duration::from_millis(deadline.saturating_sub(now_unix_ms()));
        window = Some(window.map_or(left, |w| w.min(left)));
    }
    if window == Some(Duration::ZERO) {
        return end_unit(record, ordinal, UnitEnd::Completed, 0, None, None);
    }

    let observer: IncumbentObserver = {
        let record = Arc::clone(record);
        Arc::new(move |inc: &Incumbent| {
            record.offer_incumbent(&inc.solution, inc.energy, inc.found_at);
        })
    };

    let mut term = Termination::external(Arc::clone(&record.stop));
    term.target_energy = record.spec.target;
    term.time_limit = window;

    let (slice, warm) = match &task.work {
        UnitWork::Slice { batches } => (*batches, record.incumbent()),
        UnitWork::Cube { index, batches } => {
            // A cube unit starts from its enumerated corner, not the shared
            // incumbent — that divergence is the point.
            let seed = cube_seed(&model, *index);
            let energy = model.energy(&seed);
            (*batches, Some((seed, energy)))
        }
    };
    term.max_batches = slice;
    let warm = warm.map(|(solution, energy)| WarmStart { solution, energy });

    // The unit's devices search side by side on its share of the cores
    // (`execute()` takes the share of a one-worker pool) while its batches
    // are long enough to pay for it.
    let share = unit_thread_share(pool.map_or(1, |p| p.workers)).min(solver.config().devices);
    let mut unit = solver.start_unit(&model, term.clone(), Some(observer), warm);
    let mut remaining = slice.unwrap_or(u64::MAX);
    let mut assigned = slice; // shrinks when this unit yields
    while remaining > 0 {
        let before = unit.batches();
        let long = before > 0
            && unit.batch_time().as_nanos() >= MIN_OVERLAP_BATCH.as_nanos() * u128::from(before);
        unit.set_threads(if long { share } else { 1 });
        let quantum = if before == 0 && share > 1 {
            PROBE_BATCHES
        } else {
            YIELD_QUANTUM
        };
        let terminated = unit.step(remaining.min(quantum));
        remaining = remaining.saturating_sub(unit.batches() - before);
        if terminated || remaining == 0 {
            break;
        }
        let Some(shared) = pool else {
            continue;
        };
        // Window-bounded units have no batch budget to hand over.
        if slice.is_some()
            && remaining >= MIN_YIELD_BATCHES
            && shared.should_yield(task.priority)
            && record.add_continuation_unit()
        {
            // Priority yield: hand the remainder back as a continuation
            // unit and free this worker for the more urgent one. The
            // executed prefix is complete in itself; the continuation owns
            // the rest of the budget.
            assigned = assigned.map(|a| a - remaining);
            shared.yields.fetch_add(1, Ordering::Relaxed);
            pool_obs().yields.inc();
            shared.push_unit(UnitTask {
                record: Arc::clone(record),
                work: UnitWork::Slice {
                    batches: Some(remaining),
                },
                enqueued_at: Instant::now(),
                ..task.clone()
            });
            break;
        }
    }
    let out = unit.finish();
    // Judge this unit against the budget it actually kept (after a yield):
    // the job's completion rule, applied per unit.
    let mut judged = term;
    judged.max_batches = assigned;
    if out.result.reached_target {
        // Success broadcast: siblings stop at their next batch and the
        // queued remainder is revoked; the fold still reports `done`.
        record.stop.stop();
    }
    let end = match classify(record, &judged, &out.result) {
        JobPhase::Done => UnitEnd::Completed,
        _ => UnitEnd::Interrupted,
    };
    let batches = out.result.batches;
    end_unit(record, ordinal, end, batches, Some(out), None);
}

/// Execute one job record synchronously to a terminal phase, as a
/// sequential fold of the same units the pool would create for a one-worker
/// pool (FIFO, incumbent broadcast between consecutive units, no
/// yielding). Public so embedded callers — tests, single-shot tools —
/// can run a record without a pool; also the reference the scheduler's
/// merged results are property-tested against.
pub fn execute(record: &Arc<JobRecord>) {
    if let Some(deadline) = record.spec.deadline_unix_ms {
        if now_unix_ms() >= deadline && record.expire_if_unstarted("deadline passed while queued") {
            return;
        }
    }
    let works = decompose(&record.spec, 1);
    record.plan_units(works.len() as u32);
    for (seq, work) in works.into_iter().enumerate() {
        if record.phase().is_terminal() {
            return;
        }
        run_task(
            None,
            &UnitTask {
                record: Arc::clone(record),
                work,
                priority: record.spec.priority,
                deadline_unix_ms: record.spec.deadline_unix_ms,
                seq: seq as u64,
                enqueued_at: Instant::now(),
            },
            false,
            Duration::ZERO,
        );
    }
}

/// Decide the terminal phase of a run that just returned `result`, where
/// `term` is the termination the run *actually* executed under (including
/// the deadline clamp and any budget moved to a yield's continuation unit —
/// not a recomputation from the spec, which would misjudge a
/// deadline-clamped run that completed its whole window).
///
/// A tripped stop flag means a client cancel or a server shutdown
/// (`stop_all`) reached the job — but the flag alone cannot distinguish a
/// run that was actually cut short from one where the cancel landed *after*
/// the solver already hit its own termination (target reached, batch or
/// time budget exhausted). Judging completion from the result closes that
/// race: a fully completed run stays `done` no matter when the flag
/// tripped, while a genuinely interrupted one (e.g. a shutdown-drained job
/// that never executed a batch) reports `cancelled` instead of handing the
/// client a fabricated success.
fn classify(record: &JobRecord, term: &Termination, result: &SolveResult) -> JobPhase {
    let ran_to_completion = result.reached_target
        || term.max_batches.is_some_and(|m| result.batches >= m)
        || term.time_limit.is_some_and(|t| result.elapsed >= t);
    if ran_to_completion || !(record.cancel_requested() || record.stop.is_stopped()) {
        JobPhase::Done
    } else {
        JobPhase::Cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRegistry;
    use crate::spec::ProblemSpec;
    use dabs_core::Termination;
    use dabs_model::KernelChoice;

    fn registry() -> Arc<JobRegistry> {
        Arc::new(JobRegistry::new())
    }

    fn small_job(seed: u64, batches: u64) -> JobSpec {
        JobSpec {
            problem: ProblemSpec::random(20, seed),
            devices: 2,
            seed,
            max_batches: Some(batches),
            ..JobSpec::default()
        }
    }

    #[test]
    fn pool_drains_queue_and_results_match_offline_reference() {
        // 150-batch jobs stay single-unit, so the pool must reproduce the
        // offline sequential reference bit-for-bit even with 3 workers.
        let registry = registry();
        let pool = ElasticPool::spawn(3, 64);
        let mut records = Vec::new();
        for seed in 1..=12u64 {
            let record = registry.register(small_job(seed, 150));
            pool.submit(&record).unwrap();
            records.push(record);
        }
        for record in &records {
            assert!(
                record.wait_terminal(Duration::from_secs(60)),
                "job {} stuck",
                record.id
            );
            let (phase, result, error) = record.snapshot();
            assert_eq!(phase, JobPhase::Done, "{error:?}");
            let result = result.expect("done jobs carry a result");
            let (model, _) = record.spec.problem.build().unwrap();
            let reference = record
                .spec
                .build_solver()
                .unwrap()
                .run_sequential(&model, record.spec.termination());
            assert_eq!(result.energy, reference.energy, "job {}", record.id);
            assert_eq!(result.best, reference.best);
        }
        pool.close();
        pool.join();
    }

    #[test]
    fn one_unit_job_on_an_idle_pool_is_the_sequential_run() {
        // Admission plans the only units a job runs: a `units: 1` job with a
        // budget far above the decomposition floor stays one unit even with
        // a second worker idle the whole time, and is the offline run.
        let registry = registry();
        let pool = ElasticPool::spawn(2, 64);
        let record = registry.register(JobSpec {
            problem: ProblemSpec::random(64, 5),
            units: Some(1),
            ..small_job(5, 1_000)
        });
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(120)));
        pool.close();
        pool.join();
        assert_eq!(record.unit_counts(), (1, 1, 1));
        let (phase, result, error) = record.snapshot();
        assert_eq!(phase, JobPhase::Done, "{error:?}");
        let result = result.unwrap();
        let (model, _) = record.spec.problem.build().unwrap();
        let reference = record
            .spec
            .build_solver()
            .unwrap()
            .run_sequential(&model, record.spec.termination());
        assert_eq!(result.best, reference.best);
        assert_eq!(result.energy, reference.energy);
        assert_eq!(result.batches, reference.batches);
        assert_eq!(result.flips, reference.flips);
    }

    #[test]
    fn decomposed_job_executes_all_units_and_spends_the_whole_budget() {
        let registry = registry();
        let pool = ElasticPool::spawn(4, 64);
        let record = registry.register(JobSpec {
            units: Some(6),
            ..small_job(3, 1_200)
        });
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(120)));
        let (phase, result, error) = record.snapshot();
        assert_eq!(phase, JobPhase::Done, "{error:?}");
        let result = result.unwrap();
        // Merged batches must equal the full budget: no unit lost, none
        // duplicated (a yield moves budget, it never mints it).
        assert_eq!(result.batches, 1_200);
        let (total, started, finished) = record.unit_counts();
        assert_eq!(finished, total);
        assert!(started >= 6, "{started} of {total} units started");
        pool.close();
        pool.join();
    }

    #[test]
    fn bulk_lane_job_folds_like_its_offline_reference() {
        // A lanes>0 job rides the same decomposition machinery; the folded
        // result must match the sequential reference bit-for-bit.
        let registry = registry();
        let pool = ElasticPool::spawn(2, 64);
        let record = registry.register(JobSpec {
            lanes: Some(64),
            units: Some(2),
            ..small_job(7, 240)
        });
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(120)));
        let (phase, result, error) = record.snapshot();
        assert_eq!(phase, JobPhase::Done, "{error:?}");
        let result = result.unwrap();
        let (model, _) = record.spec.problem.build().unwrap();
        assert_eq!(model.energy(&result.best), result.energy);
        assert_eq!(result.batches, 240);
        pool.close();
        pool.join();
    }

    #[test]
    fn expired_job_is_skipped_by_the_worker() {
        let registry = registry();
        let record = registry.register(JobSpec {
            deadline_unix_ms: Some(now_unix_ms().saturating_sub(10)),
            ..small_job(1, 1_000)
        });
        execute(&record);
        let (phase, result, _) = record.snapshot();
        assert_eq!(phase, JobPhase::Expired);
        assert!(result.is_none());
    }

    #[test]
    fn stale_deadline_is_rechecked_at_dequeue() {
        // Admission passes (deadline still in the future), but the deadline
        // expires while the unit sits behind a long-running job: the pop
        // re-check must report `expired` without executing anything. The
        // blocker outranks the doomed job on priority — at equal priority
        // the earliest-deadline tie-break would let the doomed unit jump
        // the queue whenever both are pushed before the worker's first pop.
        let registry = registry();
        let pool = ElasticPool::spawn(1, 64);
        let blocker = registry.register(JobSpec {
            max_batches: None,
            time_ms: Some(400),
            priority: 1,
            ..small_job(9, 0)
        });
        pool.submit(&blocker).unwrap();
        let doomed = registry.register(JobSpec {
            deadline_unix_ms: Some(now_unix_ms() + 100),
            ..small_job(2, 50_000)
        });
        pool.submit(&doomed).unwrap();
        assert!(doomed.wait_terminal(Duration::from_secs(30)));
        let (phase, result, error) = doomed.snapshot();
        assert_eq!(phase, JobPhase::Expired, "{error:?}");
        assert!(result.is_none());
        assert_eq!(doomed.unit_counts().1, 0, "expired job must not run");
        pool.close();
        pool.join();
    }

    /// When each unit of `record` started, read from its timeline. The
    /// timeline stamps events relative to the job's submission, which is
    /// recovered from its age (good to microseconds).
    fn unit_starts(record: &JobRecord) -> Vec<Instant> {
        let submitted = Instant::now() - record.age();
        record
            .timeline_snapshot()
            .0
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::UnitStart { .. }))
            .map(|e| submitted + Duration::from_micros(e.at_us))
            .collect()
    }

    #[test]
    fn one_worker_pops_by_priority_then_fresh_then_deadline_then_admission() {
        // Time-bounded units have no batch budget, so they never yield:
        // each runs its whole 40 ms window, and the start order is
        // exactly the pop order. A blocker holds the only worker while the
        // rest queue; each later job differs from an earlier one in one
        // urgency key.
        let registry = registry();
        let pool = ElasticPool::spawn(1, 64);
        let timed = |seed, priority| JobSpec {
            max_batches: None,
            time_ms: Some(40),
            priority,
            ..small_job(seed, 0)
        };
        let blocker = registry.register(JobSpec {
            time_ms: Some(500),
            ..timed(30, 0)
        });
        pool.submit(&blocker).unwrap();
        let t0 = Instant::now();
        while blocker.phase() != JobPhase::Running {
            assert!(t0.elapsed() < Duration::from_secs(10), "blocker stuck");
            std::thread::yield_now();
        }
        let submit = |spec| {
            let record = registry.register(spec);
            pool.submit(&record).unwrap();
            record
        };
        let fifo_a = submit(timed(31, 0));
        // Two units of one job: once its first unit started, its second is
        // no longer fresh and yields to any fresh unit of equal priority.
        let two = submit(JobSpec {
            units: Some(2),
            ..timed(32, 0)
        });
        let fifo_b = submit(timed(33, 0));
        // A deadline outranks no deadline at equal priority and freshness.
        let deadline = submit(JobSpec {
            deadline_unix_ms: Some(now_unix_ms() + 60_000),
            ..timed(34, 0)
        });
        // Priority outranks everything, even though it arrives last.
        let urgent = submit(timed(35, 1));
        assert_eq!(pool.gauges().queued_units, 6, "the blocker still runs");
        for r in [&blocker, &fifo_a, &two, &fifo_b, &deadline, &urgent] {
            assert!(r.wait_terminal(Duration::from_secs(30)), "job {}", r.id);
        }
        let mut starts: Vec<(Instant, &str)> = Vec::new();
        for (record, label) in [
            (&blocker, "blocker"),
            (&fifo_a, "fifo_a"),
            (&two, "two"),
            (&fifo_b, "fifo_b"),
            (&deadline, "deadline"),
            (&urgent, "urgent"),
        ] {
            starts.extend(unit_starts(record).into_iter().map(|at| (at, label)));
        }
        starts.sort_by_key(|&(at, _)| at);
        let order: Vec<&str> = starts.iter().map(|&(_, label)| label).collect();
        assert_eq!(
            order,
            ["blocker", "urgent", "deadline", "fifo_a", "two", "fifo_b", "two"]
        );
        pool.close();
        pool.join();
    }

    #[test]
    fn bad_problem_fails_cleanly() {
        let registry = registry();
        let record = registry.register(JobSpec {
            problem: ProblemSpec {
                kind: "no-such-kind".into(),
                n: None,
                seed: 1,
                inline: None,
                kernel: KernelChoice::Auto,
            },
            ..small_job(1, 10)
        });
        execute(&record);
        let (phase, _, error) = record.snapshot();
        assert_eq!(phase, JobPhase::Failed);
        assert!(error.unwrap().contains("no-such-kind"));
    }

    #[test]
    fn cancelled_running_job_stops_and_keeps_partial_result() {
        let registry = registry();
        // A long job: huge batch budget, no time limit.
        let record = registry.register(small_job(5, u64::MAX / 2));
        let runner = {
            let record = Arc::clone(&record);
            std::thread::spawn(move || execute(&record))
        };
        // Wait until it is running, then cancel.
        let t0 = std::time::Instant::now();
        while record.phase() != JobPhase::Running {
            assert!(t0.elapsed() < Duration::from_secs(10), "never started");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        record.request_cancel();
        let cancel_at = std::time::Instant::now();
        assert!(record.wait_terminal(Duration::from_secs(5)));
        assert!(
            cancel_at.elapsed() < Duration::from_millis(250),
            "cancel latency {:?}",
            cancel_at.elapsed()
        );
        runner.join().unwrap();
        let (phase, result, _) = record.snapshot();
        assert_eq!(phase, JobPhase::Cancelled);
        assert!(result.is_some(), "partial result preserved");
    }

    #[test]
    fn cancel_revokes_every_queued_unit_of_the_job() {
        let registry = registry();
        let pool = ElasticPool::spawn(1, 128);
        // A blocker so the victim's units all sit queued.
        let blocker = registry.register(JobSpec {
            max_batches: None,
            time_ms: Some(300),
            ..small_job(8, 0)
        });
        pool.submit(&blocker).unwrap();
        let victim = registry.register(JobSpec {
            units: Some(8),
            ..small_job(4, 80_000)
        });
        pool.submit(&victim).unwrap();
        assert_eq!(victim.request_cancel(), JobPhase::Cancelled);
        assert!(victim.wait_terminal(Duration::from_secs(10)));
        // None of the victim's units may ever start.
        pool.close();
        pool.join();
        assert_eq!(victim.unit_counts().1, 0, "revoked unit executed");
        assert!(blocker.wait_terminal(Duration::from_secs(10)));
    }

    #[test]
    fn shutdown_drained_job_reports_cancelled_not_done() {
        // A queued job whose stop flag trips before a worker reaches it
        // (server shutdown path: pool.close() + registry.stop_all()) must
        // not surface as a successful "done" with a zero result.
        let registry = registry();
        let record = registry.register(small_job(9, u64::MAX / 2));
        registry.stop_all();
        execute(&record);
        let (phase, result, _) = record.snapshot();
        assert_eq!(phase, JobPhase::Cancelled);
        assert!(result.is_none(), "nothing ran, so no fabricated result");
    }

    #[test]
    fn classify_judges_completion_from_the_result_not_flag_timing() {
        let registry = registry();
        let record = registry.register(small_job(11, 40));
        let (model, _) = record.spec.problem.build().unwrap();
        let solver = record.spec.build_solver().unwrap();
        // A run that exhausted the job's own 40-batch budget, and one that
        // a stop flag would have cut short at 5 batches.
        let spec_term = record.spec.termination();
        let complete = solver.run_sequential(&model, spec_term.clone());
        let partial = solver.run_sequential(&model, Termination::batches(5));
        assert_eq!(record.begin_unit(), Some(1));
        assert_eq!(classify(&record, &spec_term, &complete), JobPhase::Done);
        // A cancel that lands only after the run already hit its own
        // termination must not reclassify the completed run...
        record.request_cancel();
        assert_eq!(classify(&record, &spec_term, &complete), JobPhase::Done);
        // ...while a genuinely interrupted run still reports cancelled.
        assert_eq!(classify(&record, &spec_term, &partial), JobPhase::Cancelled);
        // A deadline-clamped run is judged against the clamp it actually
        // executed under, not the spec's longer budget: completing the
        // whole clamped window is completion, even with the flag tripped.
        let clamped = spec_term.with_time(partial.elapsed);
        assert_eq!(classify(&record, &clamped, &partial), JobPhase::Done);
    }

    #[test]
    fn threaded_mode_jobs_run_too() {
        // A submit line written for the retired `mode`/`blocks` fields
        // still parses (both are ignored; `units` sets the width) and runs.
        let line = "{\"problem\":{\"kind\":\"random\",\"n\":20,\"seed\":7},\"seed\":7,\
                    \"mode\":\"threaded\",\"blocks\":3,\"time_ms\":150}";
        let spec = JobSpec::from_json(&serde::json::Json::parse(line).unwrap()).unwrap();
        assert_eq!(decompose(&spec, 4).len(), 1, "time-bounded: one arm");
        let registry = registry();
        let record = registry.register(spec);
        execute(&record);
        let (phase, result, _) = record.snapshot();
        assert_eq!(phase, JobPhase::Done);
        assert!(result.unwrap().batches > 0);
    }

    #[test]
    fn stop_flag_termination_used_by_worker_is_the_records() {
        let record = registry().register(small_job(3, 50));
        let term = record
            .spec
            .termination()
            .with_stop(Arc::clone(&record.stop));
        assert!(!term.stop_requested());
        record.stop.stop();
        assert!(term.stop_requested());
        // Same semantics the core Termination promises.
        let _ = Termination::external(Arc::clone(&record.stop));
    }

    #[test]
    fn decompose_widths() {
        // Small budgets stay single-unit (bit-identical sequential path).
        assert_eq!(decompose(&small_job(1, 150), 8).len(), 1);
        // Large budgets split up to the worker count.
        assert_eq!(decompose(&small_job(1, 1_000), 4).len(), 4);
        // Explicit width wins.
        let wide = JobSpec {
            units: Some(6),
            ..small_job(1, 1_000)
        };
        assert_eq!(decompose(&wide, 2).len(), 6);
        // Time-only jobs default to one arm.
        let timed = JobSpec {
            max_batches: None,
            time_ms: Some(100),
            ..small_job(1, 0)
        };
        assert_eq!(decompose(&timed, 8).len(), 1);
        // An explicit width holds whatever the pool's size.
        let threaded = JobSpec {
            units: Some(3),
            ..small_job(1, 10_000)
        };
        assert_eq!(decompose(&threaded, 8).len(), 3);
        assert_eq!(decompose(&threaded, 1).len(), 3);
        // Budgets are partitioned exactly.
        for (spec, workers) in [(&wide, 2), (&threaded, 8)] {
            let budget: u64 = decompose(spec, workers)
                .iter()
                .map(|w| match w {
                    UnitWork::Slice { batches } | UnitWork::Cube { batches, .. } => {
                        batches.unwrap()
                    }
                })
                .sum();
            assert_eq!(budget, spec.max_batches.unwrap());
        }
    }

    #[test]
    fn parallel_units_of_one_job_search_from_distinct_seeds() {
        // Two units started side by side on two workers: with one shared
        // seed the second would replay the first exactly (same best, twice
        // the flips of one half-budget run).
        let registry = registry();
        let pool = ElasticPool::spawn(2, 64);
        let record = registry.register(JobSpec {
            problem: ProblemSpec {
                kind: "k2000".into(),
                n: Some(200),
                seed: 3,
                inline: None,
                kernel: KernelChoice::Auto,
            },
            units: Some(2),
            ..small_job(5, 40)
        });
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(60)));
        let (phase, result, error) = record.snapshot();
        assert_eq!(phase, JobPhase::Done, "{error:?}");
        let result = result.unwrap();
        assert_eq!(result.batches, 40);
        let (model, _) = record.spec.problem.build().unwrap();
        let half = record
            .spec
            .build_solver()
            .unwrap()
            .run_sequential(&model, Termination::batches(20));
        assert!(
            !(result.energy == half.energy
                && result.best == half.best
                && result.flips == 2 * half.flips),
            "the second unit repeated the first"
        );
        pool.close();
        pool.join();
    }

    #[test]
    fn large_instances_get_cube_seeded_units() {
        let spec = JobSpec {
            problem: ProblemSpec::random(200, 1),
            units: Some(6),
            ..small_job(1, 1_200)
        };
        let works = decompose(&spec, 4);
        let cubes = works
            .iter()
            .filter(|w| matches!(w, UnitWork::Cube { .. }))
            .count();
        assert_eq!(cubes, 4);
        // Cube seeds are distinct corners of the same bit set.
        let (model, _) = spec.problem.build().unwrap();
        let seeds: Vec<Solution> = (0..4).map(|i| cube_seed(&model, i)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(seeds[i], seeds[j], "cube corners {i} and {j} collide");
            }
        }
    }

    #[test]
    fn incumbent_broadcast_reaches_single_worker_energy_at_equal_budget() {
        // Solver parity (acceptance criterion): a job executed as N units
        // with incumbent broadcast must reach an energy ≤ the single-worker
        // run at the same total flip budget.
        let spec = JobSpec {
            problem: ProblemSpec::random(64, 77),
            units: Some(4),
            ..small_job(77, 800)
        };
        let single = JobSpec {
            units: None,
            ..spec.clone()
        };
        let (model, _) = single.problem.build().unwrap();
        let reference = single
            .build_solver()
            .unwrap()
            .run_sequential(&model, single.termination());

        let registry = registry();
        let pool = ElasticPool::spawn(2, 64);
        let record = registry.register(spec);
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(120)));
        let (phase, result, error) = record.snapshot();
        assert_eq!(phase, JobPhase::Done, "{error:?}");
        let result = result.unwrap();
        assert_eq!(result.batches, 800);
        assert!(
            result.energy <= reference.energy,
            "decomposed {} vs single {}",
            result.energy,
            reference.energy
        );
        pool.close();
        pool.join();
    }

    #[test]
    fn target_reached_by_one_unit_halts_its_siblings() {
        // The zero solution has energy 0, so target=0 is reached by every
        // unit instantly; the first one to finish broadcasts stop and the
        // job folds to done, not cancelled.
        let registry = registry();
        let pool = ElasticPool::spawn(2, 64);
        let record = registry.register(JobSpec {
            target: Some(0),
            units: Some(4),
            ..small_job(6, 400_000)
        });
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(60)));
        let (phase, result, error) = record.snapshot();
        assert_eq!(phase, JobPhase::Done, "{error:?}");
        let result = result.unwrap();
        assert!(result.reached_target);
        assert!(
            result.batches < 400_000,
            "siblings kept burning the budget: {} batches",
            result.batches
        );
        pool.close();
        pool.join();
    }

    #[test]
    fn pool_gauges_count_work() {
        let registry = registry();
        let pool = ElasticPool::spawn(2, 64);
        assert_eq!(
            pool.gauges(),
            PoolGauges {
                workers: 2,
                unit_threads: unit_thread_share(2) as u64,
                ..PoolGauges::default()
            }
        );
        let record = registry.register(JobSpec {
            units: Some(4),
            ..small_job(2, 2_000)
        });
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(60)));
        let g = pool.gauges();
        assert_eq!(g.workers, 2);
        assert_eq!(g.queued_units, 0);
        pool.close();
        pool.join();
    }

    #[test]
    fn unit_capacity_is_enforced() {
        let registry = registry();
        let pool = ElasticPool::spawn(1, 4);
        // One blocker occupies the worker while the capacity fills.
        let blocker = registry.register(JobSpec {
            max_batches: None,
            time_ms: Some(300),
            ..small_job(5, 0)
        });
        pool.submit(&blocker).unwrap();
        // A 4-unit job exceeds what is left of the 4-slot capacity as soon
        // as any other unit is still queued.
        let wide = registry.register(JobSpec {
            units: Some(4),
            ..small_job(1, 50_000)
        });
        let narrow = registry.register(small_job(2, 150));
        pool.submit(&narrow).unwrap();
        match pool.submit(&wide) {
            Err(AdmissionError::Full { capacity: 4 }) => {}
            other => panic!("expected Full, got {other:?}"),
        }
        pool.close();
        pool.join();
    }

    #[test]
    fn panicking_unit_fails_job_and_worker_survives() {
        let plan = Arc::new(FaultPlan::parse("seed=1,unit_panic=1x1").unwrap());
        let registry = registry();
        let pool = ElasticPool::spawn_with_chaos(1, 64, Some(Arc::clone(&plan)));
        let doomed = registry.register(small_job(1, 150));
        pool.submit(&doomed).unwrap();
        assert!(doomed.wait_terminal(Duration::from_secs(30)));
        let (phase, _, error) = doomed.snapshot();
        assert_eq!(phase, JobPhase::Failed);
        assert!(error.unwrap().contains("unit panicked"));
        assert_eq!(plan.injected(FaultSite::UnitPanic), 1);
        // The worker contained the panic: the next job runs normally on the
        // same (still-alive) thread.
        let healthy = registry.register(small_job(2, 150));
        pool.submit(&healthy).unwrap();
        assert!(healthy.wait_terminal(Duration::from_secs(30)));
        assert_eq!(healthy.snapshot().0, JobPhase::Done);
        assert_eq!(pool.live_workers(), 1);
        assert_eq!(pool.gauges().worker_restarts, 0, "no thread died");
        pool.close();
        pool.join();
    }

    #[test]
    fn repeated_panics_quarantine_the_job() {
        let plan = Arc::new(FaultPlan::parse("seed=1,unit_panic=1x3").unwrap());
        let registry = registry();
        let pool = ElasticPool::spawn_with_chaos(1, 64, Some(plan));
        let poison = registry.register(JobSpec {
            units: Some(4),
            ..small_job(3, 1_200)
        });
        pool.submit(&poison).unwrap();
        assert!(poison.wait_terminal(Duration::from_secs(30)));
        let (phase, _, error) = poison.snapshot();
        assert_eq!(phase, JobPhase::Failed);
        assert!(error.unwrap().contains("unit panicked"));
        assert!(poison.is_quarantined(), "3 panics must quarantine");
        assert_eq!(poison.panic_count(), 3);
        // The pool itself still serves fresh jobs.
        let healthy = registry.register(small_job(5, 150));
        pool.submit(&healthy).unwrap();
        assert!(healthy.wait_terminal(Duration::from_secs(30)));
        assert_eq!(healthy.snapshot().0, JobPhase::Done);
        pool.close();
        pool.join();
    }

    #[test]
    fn dead_worker_is_respawned_and_its_unit_survives() {
        let plan = Arc::new(FaultPlan::parse("seed=1,worker_kill=1x1").unwrap());
        let registry = registry();
        let pool = ElasticPool::spawn_with_chaos(1, 64, Some(Arc::clone(&plan)));
        let record = registry.register(small_job(4, 150));
        pool.submit(&record).unwrap();
        // The first pop kills the only worker; the unit is re-queued and
        // the supervisor must respawn the slot for the job to finish at
        // all.
        assert!(record.wait_terminal(Duration::from_secs(30)));
        assert_eq!(record.snapshot().0, JobPhase::Done);
        assert_eq!(plan.injected(FaultSite::WorkerKill), 1);
        assert!(pool.gauges().worker_restarts >= 1);
        assert_eq!(pool.live_workers(), 1, "pool not healed to full width");
        pool.close();
        pool.join();
    }

    #[test]
    fn poisoned_sched_lock_does_not_cascade() {
        let registry = registry();
        let pool = ElasticPool::spawn(2, 64);
        let shared = Arc::clone(&pool.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.sched.lock().unwrap();
            // resume_unwind: poison the lock without panic-hook noise.
            std::panic::resume_unwind(Box::new("poison the sched lock"));
        });
        assert!(poisoner.join().is_err());
        assert!(pool.shared.sched.is_poisoned());
        // Admission and execution still work through the recovered guard.
        let record = registry.register(small_job(6, 150));
        pool.submit(&record).unwrap();
        assert!(record.wait_terminal(Duration::from_secs(30)));
        assert_eq!(record.snapshot().0, JobPhase::Done);
        pool.close();
        pool.join();
    }

    #[test]
    fn brownout_sheds_lower_priority_queued_jobs() {
        let registry = registry();
        let pool = ElasticPool::spawn(1, 4);
        // Occupy the single worker so everything below stays queued.
        let blocker = registry.register(JobSpec {
            max_batches: None,
            time_ms: Some(400),
            priority: 9,
            ..small_job(8, 0)
        });
        pool.submit(&blocker).unwrap();
        let t0 = Instant::now();
        while pool.gauges().busy == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "blocker stuck");
            std::thread::yield_now();
        }
        // Three low-priority jobs fill 3 of the 4 unit slots.
        let victims: Vec<_> = (0..3)
            .map(|i| {
                let r = registry.register(small_job(10 + i, 150));
                pool.submit(&r).unwrap();
                r
            })
            .collect();
        // A wide higher-priority job needs all 4 slots: every victim is
        // shed to admit it.
        let urgent = registry.register(JobSpec {
            units: Some(4),
            priority: 3,
            ..small_job(2, 1_200)
        });
        pool.submit(&urgent).unwrap();
        for v in &victims {
            let (phase, _, error) = v.snapshot();
            assert_eq!(phase, JobPhase::Failed);
            assert!(error.unwrap().contains("shed"), "victim not shed");
        }
        let g = pool.gauges();
        assert_eq!(g.shed_units, 3);
        assert!(g.brownout);
        // While browned out, a victim-less full rejection reports `Shed`
        // (the client should back off, not just retry the same queue).
        let refused = registry.register(small_job(20, 150));
        assert!(matches!(pool.submit(&refused), Err(AdmissionError::Shed)));
        assert!(urgent.wait_terminal(Duration::from_secs(60)));
        assert_eq!(urgent.snapshot().0, JobPhase::Done);
        pool.close();
        pool.join();
    }
}
