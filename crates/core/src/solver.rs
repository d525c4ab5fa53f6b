//! The DABS solver (paper §V): solution pools feeding inline devices.
//!
//! Architecture per Fig. 2: each device is paired with one solution pool.
//! The host side generates target packets by adaptive genetic operations on
//! a pool (occasionally crossing into the ring neighbour's pool), the device
//! runs a batch search on it, and the result folds back into the pool and
//! the run's best.
//!
//! One engine, `SeqEngine`, runs that loop: a deterministic round-robin
//! over all `devices` pools, resumable in batch quanta
//! ([`DabsSolver::start_unit`]). A unit may run its devices' batches side
//! by side on several threads ([`UnitRun::set_threads`]); it commits them
//! in round-robin order, so its outcome does not depend on the thread
//! count. Everything parallel is built from its units:
//!
//! * [`DabsSolver::run_sequential`] — one unit on one thread, stepped to
//!   termination; bit-for-bit deterministic for a given seed.
//! * [`DabsSolver::run`] — `blocks_per_device` one-thread units on scoped
//!   threads, folded with [`UnitOutcome::merge`].
//! * the server's elastic pool — a job's units scheduled on shared workers,
//!   each unit on its worker's share of the host's cores.

use crate::adaptive::{generate_target, select_algorithm, select_operation};
use crate::device::InlineDevice;
use crate::{DabsConfig, FrequencyReport, GeneticOp, PoolEntry, SolutionPool};
use dabs_model::{BatchKernel, CsrKernel, DenseKernel, KernelKind, QuboModel, Solution};
use dabs_rng::{Rng64, SplitMix64, Xorshift64Star};
use dabs_search::MainAlgorithm;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Salt of the per-unit seed stream (see [`DabsSolver::for_unit`]).
const UNIT_SEED_SALT: u64 = 0x756e_6974_5f73_6565;

/// Cooperative cancellation flag: set by one thread (a job runtime, a
/// signal handler, …) and checked by a run before every batch.
#[derive(Debug, Default)]
pub struct StopFlag {
    flag: AtomicBool,
}

impl StopFlag {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request termination.
    #[inline]
    pub fn stop(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has termination been requested?
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// When to stop a run. Conditions combine with OR; at least one must be set.
#[derive(Debug, Clone, Default)]
pub struct Termination {
    /// Stop as soon as the global best reaches (≤) this energy.
    pub target_energy: Option<i64>,
    /// Stop after this wall-clock time.
    pub time_limit: Option<Duration>,
    /// Stop after this many batches (summed over all devices).
    pub max_batches: Option<u64>,
    /// External cancellation hook: stop as soon as this flag trips. The flag
    /// is owned by the caller (a job runtime, a signal handler, …) and may
    /// already be tripped when the run starts — the run then returns without
    /// executing a batch. Checked between batches, so cancellation latency
    /// is one batch, not one run.
    pub stop: Option<Arc<StopFlag>>,
}

impl Termination {
    /// Run until `target` is reached (no safety net — combine with a limit
    /// for non-trivial instances).
    pub fn target(target: i64) -> Self {
        Self {
            target_energy: Some(target),
            ..Self::default()
        }
    }

    /// Run for a fixed wall-clock budget.
    pub fn time(limit: Duration) -> Self {
        Self {
            time_limit: Some(limit),
            ..Self::default()
        }
    }

    /// Run for a fixed number of batches.
    pub fn batches(max: u64) -> Self {
        Self {
            max_batches: Some(max),
            ..Self::default()
        }
    }

    /// Run until the external flag trips (no other condition — the caller is
    /// fully responsible for stopping the run).
    pub fn external(stop: Arc<StopFlag>) -> Self {
        Self {
            stop: Some(stop),
            ..Self::default()
        }
    }

    /// Add a target energy.
    pub fn with_target(mut self, target: i64) -> Self {
        self.target_energy = Some(target);
        self
    }

    /// Add a time limit.
    pub fn with_time(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Add a batch limit.
    pub fn with_batches(mut self, max: u64) -> Self {
        self.max_batches = Some(max);
        self
    }

    /// Add an external cancellation flag.
    pub fn with_stop(mut self, stop: Arc<StopFlag>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Has the external flag (if any) tripped?
    #[inline]
    pub fn stop_requested(&self) -> bool {
        self.stop.as_ref().is_some_and(|s| s.is_stopped())
    }

    fn validate(&self) -> Result<(), String> {
        if self.target_energy.is_none()
            && self.time_limit.is_none()
            && self.max_batches.is_none()
            && self.stop.is_none()
        {
            return Err("termination must set at least one condition".into());
        }
        Ok(())
    }
}

/// A new global-best solution, as delivered to an incumbent observer.
#[derive(Debug, Clone)]
pub struct Incumbent {
    /// The improving solution.
    pub solution: Solution,
    /// Its energy — strictly lower than every previously observed incumbent
    /// of the same run.
    pub energy: i64,
    /// Wall-clock offset from the start of the run.
    pub found_at: Duration,
}

/// Callback invoked on every new best-energy incumbent of a run.
///
/// Invocations are serialized and strictly improving (each call carries a
/// lower energy than the previous one) for every run entry point. In a
/// parallel [`DabsSolver::run`] the callback runs on a unit thread while the
/// run's filter lock is held: keep it fast (push to a channel, update an
/// atomic) and never call back into the solver from inside it.
pub type IncumbentObserver = Arc<dyn Fn(&Incumbent) + Send + Sync>;

/// Outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// Best solution found.
    pub best: Solution,
    /// Its energy.
    pub energy: i64,
    /// Wall-clock time at which the final best was first observed — the TTS
    /// when the target was reached.
    pub time_to_best: Duration,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// Batches executed across all devices.
    pub batches: u64,
    /// Bit flips executed across all devices.
    pub flips: u64,
    /// Whether the target energy (if any) was reached.
    pub reached_target: bool,
    /// Table-V-style execution frequencies.
    pub frequencies: FrequencyReport,
    /// The (algorithm, operation) pair whose batch first produced the final
    /// best solution (Table VI).
    pub first_finder: Option<(MainAlgorithm, GeneticOp)>,
    /// Pool restarts triggered by the diversity watchdog.
    pub restarts: u32,
}

/// A sibling incumbent used to seed a unit run (incumbent broadcast: a unit
/// scheduled after its job already found something starts from that best,
/// not from scratch).
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// The incumbent solution.
    pub solution: Solution,
    /// Its energy; the unit's observer threshold starts here, so only strict
    /// improvements over the warm start are reported.
    pub energy: i64,
}

/// Outcome of one unit run: the assembled [`SolveResult`] plus whether its
/// `best` is a genuine solution. A unit revoked before its first batch (and
/// given no warm start) carries the placeholder zeros/energy-0 result;
/// `found = false` keeps that placeholder from winning a merge on energy.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    pub result: SolveResult,
    pub found: bool,
}

impl UnitOutcome {
    /// Fold a sibling unit's outcome into this one, producing the job-level
    /// result a client sees: the best solution by minimum energy among units
    /// that found one (ties keep `self`, so folding units in submission
    /// order is deterministic), summed work counters (`batches`, `flips`,
    /// `restarts`), the maximum `elapsed` (units overlap in wall time; a sum
    /// would double-count), OR-ed `reached_target`, merged frequency tables,
    /// and the winning unit's `time_to_best`/`first_finder`.
    pub fn merge(self, other: UnitOutcome) -> UnitOutcome {
        let found = self.found || other.found;
        let other_wins = other.found && (!self.found || other.result.energy < self.result.energy);
        let (mut base, add) = if other_wins {
            (other.result, self.result)
        } else {
            (self.result, other.result)
        };
        base.batches += add.batches;
        base.flips += add.flips;
        base.restarts += add.restarts;
        base.elapsed = base.elapsed.max(add.elapsed);
        base.reached_target |= add.reached_target;
        base.frequencies.merge(&add.frequencies);
        UnitOutcome {
            result: base,
            found,
        }
    }
}

/// The multi-pool adaptive solver.
#[derive(Debug, Clone)]
pub struct DabsSolver {
    config: DabsConfig,
}

impl DabsSolver {
    /// Build a solver, validating the configuration.
    pub fn new(config: DabsConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DabsConfig {
        &self.config
    }

    /// The solver of parallel unit `index`: the same configuration with
    /// the unit's own seed. Unit 0 keeps the configured seed, so a one-unit
    /// run is [`DabsSolver::run_sequential`]; later units draw theirs from a
    /// salted SplitMix64 stream, so sibling units never repeat each other.
    /// [`DabsSolver::run`] and the server's job units both seed through
    /// here.
    pub fn for_unit(&self, index: u64) -> DabsSolver {
        let mut config = self.config.clone();
        if index > 0 {
            config.seed =
                SplitMix64::new((config.seed ^ UNIT_SEED_SALT).wrapping_add(index)).next_u64();
        }
        DabsSolver { config }
    }

    /// Parallel run: `blocks_per_device` sequential units, each a
    /// [`DabsSolver::for_unit`] clone with all `devices` pools, stepped on
    /// scoped threads and folded with [`UnitOutcome::merge`] in unit order.
    /// A batch budget is split exactly across the units; a time limit is
    /// shared; the first unit to reach the target stops its siblings at
    /// their next batch. A one-unit run stays on the caller's thread and is
    /// bit-identical to [`DabsSolver::run_sequential`].
    pub fn run(&self, model: &QuboModel, termination: Termination) -> SolveResult {
        self.run_observed(model, termination, None)
    }

    /// [`DabsSolver::run`] that additionally invokes `observer` on every
    /// new best incumbent across all units (see [`IncumbentObserver`] for
    /// the delivery contract). Used by the CLI for live progress.
    pub fn run_with_observer(
        &self,
        model: &QuboModel,
        termination: Termination,
        observer: IncumbentObserver,
    ) -> SolveResult {
        self.run_observed(model, termination, Some(observer))
    }

    fn run_observed(
        &self,
        model: &QuboModel,
        termination: Termination,
        observer: Option<IncumbentObserver>,
    ) -> SolveResult {
        let mut width = self.config.blocks_per_device as u64;
        if let Some(b) = termination.max_batches {
            width = width.min(b.max(1));
        }
        if width <= 1 {
            return self.run_sequential_observed(model, termination, observer);
        }
        termination.validate().expect("invalid termination");
        // One filter in front of the caller's observer keeps deliveries
        // serialized and strictly improving across units.
        let observer = observer.map(|inner| -> IncumbentObserver {
            let best = Mutex::new(i64::MAX);
            Arc::new(move |inc: &Incumbent| {
                let mut best = best.lock().unwrap_or_else(PoisonError::into_inner);
                if inc.energy < *best {
                    *best = inc.energy;
                    inner(inc);
                }
            })
        });
        let target_hit = AtomicBool::new(false);
        let outcomes: Vec<UnitOutcome> = std::thread::scope(|s| {
            let units: Vec<_> = (0..width)
                .map(|i| {
                    let mut term = termination.clone();
                    term.max_batches = termination
                        .max_batches
                        .map(|b| b / width + u64::from(i < b % width));
                    let solver = self.for_unit(i);
                    let observer = observer.clone();
                    let target_hit = &target_hit;
                    s.spawn(move || {
                        let target = term.target_energy;
                        let mut unit = solver.start_unit(model, term, observer, None);
                        while !unit.step(1) && !target_hit.load(Ordering::Relaxed) {}
                        if target.is_some_and(|t| unit.best_energy().is_some_and(|e| e <= t)) {
                            target_hit.store(true, Ordering::Relaxed);
                        }
                        unit.finish()
                    })
                })
                .collect();
            units
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        outcomes
            .into_iter()
            .reduce(UnitOutcome::merge)
            .expect("a parallel run has at least two units")
            .result
    }

    /// Deterministic single-threaded run: round-robin over inline devices.
    /// `max_batches` termination is exact in this mode.
    pub fn run_sequential(&self, model: &QuboModel, termination: Termination) -> SolveResult {
        self.run_sequential_observed(model, termination, None)
    }

    /// Sequential run with an incumbent observer. The observer does not
    /// perturb the search: results are bit-for-bit identical to
    /// [`DabsSolver::run_sequential`] with the same seed.
    pub fn run_sequential_with_observer(
        &self,
        model: &QuboModel,
        termination: Termination,
        observer: IncumbentObserver,
    ) -> SolveResult {
        self.run_sequential_observed(model, termination, Some(observer))
    }

    fn run_sequential_observed(
        &self,
        model: &QuboModel,
        termination: Termination,
        observer: Option<IncumbentObserver>,
    ) -> SolveResult {
        // One unit, stepped to its own termination: bit-for-bit the loop
        // this method ran before units existed.
        let mut unit = self.start_unit(model, termination, observer, None);
        unit.step(u64::MAX);
        unit.finish().result
    }

    /// Begin a resumable *unit*: the same deterministic round-robin loop as
    /// [`DabsSolver::run_sequential`], but paused and resumed in
    /// caller-controlled batch quanta ([`UnitRun::step`]) so a scheduler
    /// can interleave many jobs' units, split a unit's remaining budget, or
    /// revoke it between quanta. The unit runs on one thread until
    /// [`UnitRun::set_threads`] gives it more; any count gives the same
    /// outcome.
    ///
    /// `warm` seeds the unit with a sibling's incumbent: the solution is
    /// inserted into pool 0, every device's resident block state starts from
    /// it, and the unit's best (hence its observer threshold) starts at its
    /// energy, so the observer fires only on strict improvements over the
    /// warm start. With `warm = None`, stepping a unit to termination is
    /// bit-for-bit identical to [`DabsSolver::run_sequential`] under the
    /// same seed — the RNG seed stream is drawn identically either way.
    pub fn start_unit<'m>(
        &self,
        model: &'m QuboModel,
        termination: Termination,
        observer: Option<IncumbentObserver>,
        warm: Option<WarmStart>,
    ) -> UnitRun<'m> {
        // Monomorphize the whole sequential loop on the model's selected
        // energy-kernel backend: one dispatch per unit, never per batch.
        let inner = match model.kernel_kind() {
            KernelKind::Dense => UnitInner::Dense(SeqEngine::new(
                self.config.clone(),
                model,
                DenseKernel::new(model),
                termination,
                observer,
                warm,
            )),
            KernelKind::Csr => UnitInner::Csr(SeqEngine::new(
                self.config.clone(),
                model,
                CsrKernel::new(model),
                termination,
                observer,
                warm,
            )),
        };
        UnitRun { inner, threads: 1 }
    }
}

/// A paused-and-resumable unit run (see [`DabsSolver::start_unit`]).
/// Erases the energy-kernel monomorphization so schedulers can hold units
/// of different jobs in one collection.
pub struct UnitRun<'m> {
    inner: UnitInner<'m>,
    threads: usize,
}

enum UnitInner<'m> {
    Csr(SeqEngine<'m, CsrKernel<'m>>),
    Dense(SeqEngine<'m, DenseKernel<'m>>),
}

impl<'m> UnitRun<'m> {
    /// Let up to `threads` of this unit's batches run side by side from
    /// the next step on (at least one). Every step still commits its
    /// batches in round-robin order, so the outcome is bit-identical for
    /// any thread count, and the count may change between steps; more
    /// threads than `devices` only wait. A new unit runs on one thread.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Advance up to `quota` batches. Returns `true` when the unit hit one
    /// of its termination conditions (further steps are no-ops), `false`
    /// when the quota ran out first — the unit is paused and resumable.
    ///
    /// With `threads > 1` the call spawns up to `threads − 1` scoped
    /// helpers and the caller is the last unit thread; all of them are
    /// joined before it returns, and no batch is in flight between steps.
    /// A panic on any unit thread (an observer's, say) ends the step with
    /// that panic.
    pub fn step(&mut self, quota: u64) -> bool {
        match &mut self.inner {
            UnitInner::Csr(e) => e.step(quota, self.threads),
            UnitInner::Dense(e) => e.step(quota, self.threads),
        }
    }

    fn host(&self) -> MutexGuard<'_, Host> {
        match &self.inner {
            UnitInner::Csr(e) => e.lock(),
            UnitInner::Dense(e) => e.lock(),
        }
    }

    /// Batches executed so far by this unit.
    pub fn batches(&self) -> u64 {
        self.host().batches
    }

    /// Wall time of the batches executed so far, summed over devices.
    pub fn batch_time(&self) -> Duration {
        self.host().batch_time
    }

    /// Best energy seen so far (including a warm start), `None` before the
    /// first solution.
    pub fn best_energy(&self) -> Option<i64> {
        let e = self.host().best_energy;
        (e != i64::MAX).then_some(e)
    }

    /// Whether a termination condition has been hit.
    pub fn terminated(&self) -> bool {
        self.host().done
    }

    /// Consume the unit and assemble its outcome.
    pub fn finish(self) -> UnitOutcome {
        match self.inner {
            UnitInner::Csr(e) => e.finish(),
            UnitInner::Dense(e) => e.finish(),
        }
    }
}

impl std::fmt::Debug for UnitRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitRun")
            .field("batches", &self.batches())
            .field("best", &self.best_energy())
            .field("terminated", &self.terminated())
            .field("threads", &self.threads)
            .finish()
    }
}

/// The unit's batch loop, held as resumable state instead of a stack
/// frame: pools, host RNGs, inline devices, and the running best.
///
/// Batch `j` runs on device `j mod D` and reads that device's pool, host
/// RNG and resident state as batch `j − D` left them; an Xrossover target
/// also reads the neighbour pool as batch `j − D + 1` left it. Nothing else
/// couples the devices, so a unit thread claims `j`, generates its target
/// under the host lock once those folds are in, runs the batch without the
/// lock, and folds it strictly in `j` order. Every target and every fold
/// then sees the state the one-thread round-robin would, whatever the
/// thread count.
struct SeqEngine<'m, K: BatchKernel> {
    cfg: DabsConfig,
    n: usize,
    termination: Termination,
    observer: Option<IncumbentObserver>,
    start: Instant,
    /// Device `d` runs batches `d, d + D, d + 2D, …`, one at a time.
    devices: Vec<Mutex<InlineDevice<'m, K>>>,
    host: Mutex<Host>,
    /// Signalled after a fold or at termination, when a thread is parked.
    folded: Condvar,
}

/// Everything a claim or a fold touches, behind the engine's host lock.
struct Host {
    pools: Vec<SolutionPool>,
    host_rngs: Vec<Xorshift64Star>,
    frequencies: FrequencyReport,
    obs: crate::obs::ObsAccumulator,
    best_solution: Option<Solution>,
    best_energy: i64,
    found_at: Duration,
    finder: Option<(MainAlgorithm, GeneticOp)>,
    /// Batches folded so far; batch `batches` folds next.
    batches: u64,
    flips: u64,
    /// Wall time of the folded batches.
    batch_time: Duration,
    restarts: u32,
    /// Batches claimed so far; `claimed − batches` are in flight.
    claimed: u64,
    /// Unit threads parked on `folded`.
    parked: usize,
    done: bool,
}

/// One finished batch on its way to the fold.
struct BatchDone {
    device: usize,
    algo: MainAlgorithm,
    op: GeneticOp,
    solution: Solution,
    energy: i64,
    flips: u64,
    reductions: u64,
    elapsed: Duration,
    overlapped: bool,
    waited: Duration,
}

impl<'m, K: BatchKernel + Send> SeqEngine<'m, K> {
    fn new(
        cfg: DabsConfig,
        model: &'m QuboModel,
        kernel: K,
        termination: Termination,
        observer: Option<IncumbentObserver>,
        warm: Option<WarmStart>,
    ) -> Self {
        termination.validate().expect("invalid termination");
        let n = model.n();
        let start = Instant::now();

        let mut seeder = SplitMix64::new(cfg.seed);
        let mut pools: Vec<SolutionPool> = Vec::with_capacity(cfg.devices);
        let mut host_rngs: Vec<Xorshift64Star> = Vec::with_capacity(cfg.devices);
        for _ in 0..cfg.devices {
            let mut pool = SolutionPool::new(cfg.pool_capacity, cfg.dedup);
            let mut rng = Xorshift64Star::new(seeder.next_u64());
            pool.fill_random(n, &cfg.algorithms, &cfg.operations, &mut rng);
            pools.push(pool);
            host_rngs.push(rng);
        }
        let mut devices: Vec<InlineDevice<'m, K>> = (0..cfg.devices)
            .map(|_| InlineDevice::new(model, kernel, cfg.params, seeder.next_u64()))
            .collect();

        let mut best_solution: Option<Solution> = None;
        let mut best_energy = i64::MAX;
        if let Some(w) = warm {
            // Seed after the draws above so a warm unit consumes the seed
            // stream exactly like a cold one.
            pools[0].insert(PoolEntry {
                solution: w.solution.clone(),
                energy: w.energy,
                algorithm: MainAlgorithm::ALL[0],
                operation: GeneticOp::Random,
            });
            for dev in &mut devices {
                dev.reset_resident(&w.solution);
            }
            best_energy = w.energy;
            best_solution = Some(w.solution);
        }

        Self {
            cfg,
            n,
            termination,
            observer,
            start,
            devices: devices.into_iter().map(Mutex::new).collect(),
            host: Mutex::new(Host {
                pools,
                host_rngs,
                frequencies: FrequencyReport::new(),
                obs: crate::obs::ObsAccumulator::new(),
                best_solution,
                best_energy,
                found_at: Duration::ZERO,
                finder: None,
                batches: 0,
                flips: 0,
                batch_time: Duration::ZERO,
                restarts: 0,
                claimed: 0,
                parked: 0,
                done: false,
            }),
            folded: Condvar::new(),
        }
    }

    /// The host lock. A unit thread that panics marks the unit done before
    /// it unwinds (see [`SeqEngine::work`]), so a poisoned lock is taken
    /// back only to leave.
    fn lock(&self) -> MutexGuard<'_, Host> {
        self.host.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn step(&mut self, quota: u64, threads: usize) -> bool {
        let host = self.host.get_mut().unwrap_or_else(PoisonError::into_inner);
        if host.done {
            return true;
        }
        // Claims stop at the quota and at the batch cap (the round-robin
        // always ran one batch, so a cap of 0 still allows one).
        let mut end = host.claimed.saturating_add(quota);
        if let Some(maxb) = self.termination.max_batches {
            end = end.min(maxb.max(1));
        }
        let width = end.saturating_sub(host.claimed).min(threads as u64);
        if width <= 1 {
            self.work(end);
        } else {
            let this = &*self;
            std::thread::scope(|s| {
                let helpers: Vec<_> = (1..width).map(|_| s.spawn(|| this.work(end))).collect();
                this.work(end);
                for helper in helpers {
                    if let Err(panic) = helper.join() {
                        resume_unwind(panic);
                    }
                }
            });
        }
        self.lock().done
    }

    /// One unit thread's share of a step: claim the next batch, generate
    /// its target, run it, fold it — until the claims reach `end` or the
    /// unit is done. A batch claimed after the fold that ended the unit is
    /// discarded.
    fn work(&self, end: u64) {
        let _leave = LeaveOnPanic(self);
        let devices = self.cfg.devices as u64;
        let mut host = self.lock();
        while !host.done && host.claimed < end {
            // Check the external flag before (not after) the claim so an
            // already-tripped flag returns without touching a device.
            if self.termination.stop_requested() {
                host.done = true;
                break;
            }
            let j = host.claimed;
            host.claimed += 1;
            let d = (j % devices) as usize;
            let mut waited = Duration::ZERO;
            // Pool, host RNG and device `d` as batch j − D left them.
            host = self.wait_folded(host, (j + 1).saturating_sub(devices), &mut waited);
            if host.done {
                break;
            }
            let h = &mut *host;
            let algo = select_algorithm(&h.pools[d], &self.cfg, &mut h.host_rngs[d]);
            let op = select_operation(&h.pools[d], &self.cfg, &mut h.host_rngs[d]);
            if op == GeneticOp::Xrossover && devices > 1 {
                // The neighbour pool as batch j − D + 1 left it.
                host = self.wait_folded(host, (j + 2).saturating_sub(devices), &mut waited);
                if host.done {
                    break;
                }
            }
            let h = &mut *host;
            let neighbor = (devices > 1).then(|| &h.pools[(d + 1) % self.cfg.devices]);
            let target = generate_target(
                op,
                &h.pools[d],
                neighbor,
                self.n,
                &self.cfg,
                &mut h.host_rngs[d],
            );
            let overlapped = h.batches < j;
            drop(host);

            let (solution, energy, flips, reductions, elapsed) = {
                let mut device = self.devices[d]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // The re-reduction delta and the wall time around the batch
                // feed the sampled observability tally; the flip loop
                // itself is untouched.
                let reds_before = device.seg_reductions();
                let started = Instant::now();
                let (solution, energy, flips) = device.batch(&target, algo);
                let elapsed = started.elapsed();
                (
                    solution,
                    energy,
                    flips,
                    device.seg_reductions() - reds_before,
                    elapsed,
                )
            };

            host = self.wait_folded(self.lock(), j, &mut waited);
            if host.done {
                break;
            }
            self.fold(
                &mut host,
                BatchDone {
                    device: d,
                    algo,
                    op,
                    solution,
                    energy,
                    flips,
                    reductions,
                    elapsed,
                    overlapped,
                    waited,
                },
            );
            if host.parked > 0 {
                self.folded.notify_all();
            }
        }
        // A thread leaving on `done` wakes the parked ones, which leave too.
        if host.parked > 0 {
            self.folded.notify_all();
        }
    }

    /// Park until `need` batches are folded or the unit is done, adding
    /// the time parked to `waited`.
    fn wait_folded<'a>(
        &'a self,
        mut host: MutexGuard<'a, Host>,
        need: u64,
        waited: &mut Duration,
    ) -> MutexGuard<'a, Host> {
        if host.batches >= need || host.done {
            return host;
        }
        let parked_at = Instant::now();
        host.parked += 1;
        while host.batches < need && !host.done {
            host = self
                .folded
                .wait(host)
                .unwrap_or_else(PoisonError::into_inner);
        }
        host.parked -= 1;
        *waited += parked_at.elapsed();
        host
    }

    /// Commit the next batch in round-robin order: its pool insert and
    /// restart check, the best and the observer, the tallies, and the
    /// termination check.
    fn fold(&self, host: &mut Host, b: BatchDone) {
        host.frequencies.record_dispatch(b.algo, b.op);
        host.batches += 1;
        host.flips += b.flips;
        host.batch_time += b.elapsed;
        let improved = b.energy < host.best_energy;
        host.obs.on_overlap(b.overlapped, b.waited);
        host.obs
            .on_batch(b.algo.index(), b.flips, b.reductions, improved, b.elapsed);
        if self.cfg.params.batch_lanes >= 64 {
            host.obs.on_bulk(b.flips);
        }
        if improved {
            host.best_energy = b.energy;
            host.best_solution = Some(b.solution.clone());
            host.found_at = self.start.elapsed();
            host.finder = Some((b.algo, b.op));
            if let Some(obs) = &self.observer {
                let incumbent = Incumbent {
                    solution: b.solution.clone(),
                    energy: b.energy,
                    found_at: host.found_at,
                };
                // A panicking observer ends the unit before the lock is
                // released, so no other unit thread folds past its batch.
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| obs(&incumbent))) {
                    host.done = true;
                    resume_unwind(panic);
                }
            }
        }
        let d = b.device;
        host.pools[d].insert(PoolEntry {
            solution: b.solution,
            energy: b.energy,
            algorithm: b.algo,
            operation: b.op,
        });
        if let Some(threshold) = self.cfg.restart_diversity {
            let h = &mut *host;
            let pool = &mut h.pools[d];
            if pool.len() == pool.capacity()
                && pool.iter().all(|e| e.energy < i64::MAX)
                && pool.diversity() < threshold
            {
                pool.fill_random(
                    self.n,
                    &self.cfg.algorithms,
                    &self.cfg.operations,
                    &mut h.host_rngs[d],
                );
                h.restarts += 1;
            }
        }
        let t = &self.termination;
        host.done = t.target_energy.is_some_and(|t| host.best_energy <= t)
            || t.max_batches.is_some_and(|m| host.batches >= m)
            || t.time_limit.is_some_and(|l| self.start.elapsed() >= l);
    }

    fn finish(self) -> UnitOutcome {
        let elapsed = self.start.elapsed();
        let host = self
            .host
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let reached = self
            .termination
            .target_energy
            .is_some_and(|t| host.best_energy <= t);
        let found = host.best_solution.is_some();
        UnitOutcome {
            result: SolveResult {
                best: host
                    .best_solution
                    .unwrap_or_else(|| Solution::zeros(self.n)),
                energy: if host.best_energy == i64::MAX {
                    0
                } else {
                    host.best_energy
                },
                time_to_best: host.found_at,
                elapsed,
                batches: host.batches,
                flips: host.flips,
                reached_target: reached,
                frequencies: host.frequencies,
                first_finder: host.finder,
                restarts: host.restarts,
            },
            found,
        }
    }
}

/// Marks its unit done and wakes every parked thread if its thread
/// unwinds, so a panic on one unit thread (an observer's, say) ends the
/// step instead of leaving the others waiting for a fold that never comes.
struct LeaveOnPanic<'e, 'm, K: BatchKernel>(&'e SeqEngine<'m, K>);

impl<K: BatchKernel> Drop for LeaveOnPanic<'_, '_, K> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .host
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .done = true;
            self.0.folded.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_model::QuboBuilder;

    fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.next_range_i64(-9, 9));
            for j in (i + 1)..n {
                if rng.next_bool(density) {
                    b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
                }
            }
        }
        b.build().unwrap()
    }

    fn brute_force(q: &QuboModel) -> i64 {
        let n = q.n();
        let mut best = i64::MAX;
        for v in 0..(1u64 << n) {
            let bits: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
            best = best.min(q.energy(&Solution::from_bits(&bits)));
        }
        best
    }

    #[test]
    fn sequential_finds_small_optimum() {
        let q = random_model(16, 0.4, 201);
        let opt = brute_force(&q);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 10,
            seed: 1,
            ..DabsConfig::default()
        })
        .unwrap();
        let r = solver.run_sequential(&q, Termination::target(opt).with_batches(5_000));
        assert!(r.reached_target, "missed optimum {opt}, got {}", r.energy);
        assert_eq!(q.energy(&r.best), r.energy);
        assert_eq!(r.energy, opt);
    }

    #[test]
    fn sequential_is_deterministic() {
        let q = random_model(24, 0.3, 202);
        let mk = || {
            DabsSolver::new(DabsConfig {
                devices: 3,
                blocks_per_device: 1,
                pool_capacity: 8,
                seed: 77,
                ..DabsConfig::default()
            })
            .unwrap()
        };
        let a = mk().run_sequential(&q, Termination::batches(60));
        let b = mk().run_sequential(&q, Termination::batches(60));
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.best, b.best);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.frequencies, b.frequencies);
        assert_eq!(a.first_finder, b.first_finder);
    }

    #[test]
    fn sequential_batch_limit_is_exact() {
        let q = random_model(20, 0.3, 203);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 5,
            seed: 3,
            ..DabsConfig::default()
        })
        .unwrap();
        let r = solver.run_sequential(&q, Termination::batches(17));
        assert_eq!(r.batches, 17);
        assert!(!r.reached_target);
        assert!(r.flips > 0);
    }

    #[test]
    fn sequential_bulk_mode_solves_and_counts_lane_flips() {
        let q = random_model(16, 0.4, 206);
        let opt = brute_force(&q);
        let mut cfg = DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 8,
            seed: 11,
            ..DabsConfig::default()
        };
        cfg.params.batch_lanes = 64;
        let bulk_before = crate::obs::solver_obs().bulk_flips.get();
        let solver = DabsSolver::new(cfg).unwrap();
        let r = solver.run_sequential(&q, Termination::target(opt).with_batches(400));
        assert_eq!(q.energy(&r.best), r.energy);
        assert_eq!(r.energy, opt, "bulk mode missed the optimum");
        assert!(r.flips > 0);
        assert!(
            crate::obs::solver_obs().bulk_flips.get() > bulk_before,
            "bulk legs must feed the solver.bulk_flips counter"
        );
    }

    #[test]
    fn sequential_bulk_mode_is_deterministic() {
        let q = random_model(24, 0.3, 207);
        let mk = || {
            let mut cfg = DabsConfig {
                devices: 2,
                blocks_per_device: 1,
                pool_capacity: 8,
                seed: 78,
                ..DabsConfig::default()
            };
            cfg.params.batch_lanes = 64;
            DabsSolver::new(cfg).unwrap()
        };
        let a = mk().run_sequential(&q, Termination::batches(30));
        let b = mk().run_sequential(&q, Termination::batches(30));
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.best, b.best);
        assert_eq!(a.flips, b.flips);
    }

    #[test]
    fn threaded_bulk_mode_reaches_a_valid_result() {
        let q = random_model(20, 0.3, 208);
        let mut cfg = DabsConfig {
            devices: 2,
            blocks_per_device: 2,
            pool_capacity: 8,
            seed: 21,
            ..DabsConfig::default()
        };
        cfg.params.batch_lanes = 64;
        let solver = DabsSolver::new(cfg).unwrap();
        let r = solver.run(&q, Termination::batches(40));
        assert_eq!(q.energy(&r.best), r.energy);
        assert!(r.flips > 0);
    }

    #[test]
    fn frequencies_cover_portfolio() {
        let q = random_model(20, 0.3, 204);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 10,
            seed: 5,
            ..DabsConfig::default()
        })
        .unwrap();
        let r = solver.run_sequential(&q, Termination::batches(300));
        assert_eq!(r.frequencies.total(), 300);
        // with 5% exploration over 300 draws, every algorithm should appear
        let nonzero = r
            .frequencies
            .algo_executed
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert_eq!(nonzero, 5, "{:?}", r.frequencies.algo_executed);
    }

    #[test]
    fn abs_preset_uses_only_cyclicmin_and_crossmutate() {
        let q = random_model(20, 0.3, 205);
        let solver = DabsSolver::new(DabsConfig {
            seed: 6,
            ..DabsConfig::abs_baseline(2, 1)
        })
        .unwrap();
        let r = solver.run_sequential(&q, Termination::batches(100));
        for a in MainAlgorithm::ALL {
            let count = r.frequencies.algo_executed[a.index()];
            if a == MainAlgorithm::CyclicMin {
                assert_eq!(count, 100);
            } else {
                assert_eq!(count, 0, "{} executed under ABS preset", a.name());
            }
        }
        assert_eq!(
            r.frequencies.op_executed[GeneticOp::CrossMutate.index()],
            100
        );
    }

    #[test]
    fn first_finder_is_recorded() {
        let q = random_model(16, 0.4, 206);
        let opt = brute_force(&q);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 10,
            seed: 7,
            ..DabsConfig::default()
        })
        .unwrap();
        let r = solver.run_sequential(&q, Termination::target(opt).with_batches(5_000));
        assert!(r.first_finder.is_some());
        let (algo, op) = r.first_finder.unwrap();
        assert!(MainAlgorithm::ALL.contains(&algo));
        assert!(GeneticOp::DABS.contains(&op));
    }

    #[test]
    fn threaded_run_reaches_small_optimum() {
        let q = random_model(18, 0.4, 207);
        let opt = brute_force(&q);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 2,
            pool_capacity: 10,
            seed: 8,
            ..DabsConfig::default()
        })
        .unwrap();
        let r = solver.run(
            &q,
            Termination::target(opt).with_time(Duration::from_secs(30)),
        );
        assert!(
            r.reached_target,
            "threaded run missed optimum: {}",
            r.energy
        );
        assert_eq!(q.energy(&r.best), opt);
        assert!(r.time_to_best <= r.elapsed);
        assert!(r.batches > 0);
    }

    #[test]
    fn threaded_time_limit_respected() {
        let q = random_model(40, 0.3, 208);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 2,
            pool_capacity: 10,
            seed: 9,
            ..DabsConfig::default()
        })
        .unwrap();
        let r = solver.run(&q, Termination::time(Duration::from_millis(300)));
        assert!(
            r.elapsed < Duration::from_secs(10),
            "run should stop promptly"
        );
        assert!(r.batches > 0, "some work must have happened");
    }

    #[test]
    fn restart_watchdog_fires_on_degenerate_pools() {
        // A trivially-optimizable model makes every batch return the same
        // optimum, collapsing diversity; with a generous threshold the
        // watchdog must fire.
        let q = random_model(12, 0.6, 209);
        let solver = DabsSolver::new(DabsConfig {
            devices: 1,
            blocks_per_device: 1,
            pool_capacity: 3,
            dedup: false,
            restart_diversity: Some(6.0),
            seed: 10,
            ..DabsConfig::default()
        })
        .unwrap();
        let r = solver.run_sequential(&q, Termination::batches(400));
        assert!(r.restarts > 0, "expected at least one pool restart");
    }

    #[test]
    fn stop_flag_transitions_once() {
        let f = StopFlag::new();
        assert!(!f.is_stopped());
        f.stop();
        assert!(f.is_stopped());
        f.stop(); // idempotent
        assert!(f.is_stopped());
    }

    #[test]
    #[should_panic(expected = "at least one condition")]
    fn empty_termination_rejected() {
        let q = random_model(10, 0.5, 210);
        let solver = DabsSolver::new(DabsConfig::default()).unwrap();
        solver.run_sequential(&q, Termination::default());
    }

    #[test]
    fn tripped_stop_flag_returns_promptly_from_sequential() {
        let q = random_model(24, 0.3, 211);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 8,
            seed: 21,
            ..DabsConfig::default()
        })
        .unwrap();
        let stop = Arc::new(StopFlag::new());
        stop.stop();
        // A generous time limit that must NOT be consumed.
        let term = Termination::time(Duration::from_secs(60)).with_stop(Arc::clone(&stop));
        let t0 = Instant::now();
        let r = solver.run_sequential(&q, term);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "must return promptly"
        );
        assert_eq!(r.batches, 0, "no batch may run under a tripped flag");
        assert_eq!(r.energy, 0);
        assert_eq!(r.best, Solution::zeros(24));

        // Pool state is rebuilt per run: the same solver must still work.
        let r2 = solver.run_sequential(&q, Termination::batches(50));
        assert_eq!(r2.batches, 50);
        assert!(r2.flips > 0);
    }

    #[test]
    fn tripped_stop_flag_returns_promptly_from_threaded() {
        let q = random_model(40, 0.3, 212);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 3,
            pool_capacity: 8,
            seed: 22,
            ..DabsConfig::default()
        })
        .unwrap();
        let stop = Arc::new(StopFlag::new());
        stop.stop();
        let term = Termination::time(Duration::from_secs(60)).with_stop(Arc::clone(&stop));
        let t0 = Instant::now();
        let r = solver.run(&q, term);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "must return promptly, took {:?}",
            t0.elapsed()
        );
        assert_eq!(r.batches, 0, "no unit may run a batch under a tripped flag");
        assert_eq!(r.best, Solution::zeros(40));
        // Re-running with a fresh termination must still make progress.
        let r2 = solver.run(&q, Termination::time(Duration::from_millis(100)));
        assert!(r2.batches > 0);
    }

    #[test]
    fn mid_run_cancellation_stops_both_modes() {
        let q = random_model(48, 0.3, 213);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 2,
            pool_capacity: 8,
            seed: 23,
            ..DabsConfig::default()
        })
        .unwrap();
        for threaded in [false, true] {
            let stop = Arc::new(StopFlag::new());
            let canceller = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    stop.stop();
                })
            };
            let term = Termination::external(Arc::clone(&stop));
            let t0 = Instant::now();
            let r = if threaded {
                solver.run(&q, term)
            } else {
                solver.run_sequential(&q, term)
            };
            canceller.join().unwrap();
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "threaded={threaded}: cancel not honored, took {:?}",
                t0.elapsed()
            );
            assert!(r.batches > 0, "threaded={threaded}: ran before cancel");
            assert!(!r.reached_target);
        }
    }

    #[test]
    fn sequential_observer_streams_strictly_improving_incumbents() {
        let q = random_model(32, 0.3, 214);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 8,
            seed: 24,
            ..DabsConfig::default()
        })
        .unwrap();
        let seen: Arc<Mutex<Vec<(i64, Duration)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let r = solver.run_sequential_with_observer(
            &q,
            Termination::batches(400),
            Arc::new(move |inc: &Incumbent| {
                sink.lock().unwrap().push((inc.energy, inc.found_at));
            }),
        );
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "at least the first best must be observed");
        for w in seen.windows(2) {
            assert!(w[1].0 < w[0].0, "energies must strictly improve: {seen:?}");
        }
        assert_eq!(seen.last().unwrap().0, r.energy);
        // Observer must not perturb determinism.
        let r2 = solver.run_sequential(&q, Termination::batches(400));
        assert_eq!(r2.energy, r.energy);
        assert_eq!(r2.best, r.best);
    }

    #[test]
    fn threaded_observer_streams_strictly_improving_incumbents() {
        let q = random_model(40, 0.3, 215);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 2,
            pool_capacity: 8,
            seed: 25,
            ..DabsConfig::default()
        })
        .unwrap();
        let seen: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let r = solver.run_with_observer(
            &q,
            Termination::time(Duration::from_millis(300)),
            Arc::new(move |inc: &Incumbent| {
                sink.lock().unwrap().push(inc.energy);
            }),
        );
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty());
        for w in seen.windows(2) {
            assert!(w[1] < w[0], "energies must strictly improve: {seen:?}");
        }
        assert_eq!(*seen.last().unwrap(), r.energy);
    }

    #[test]
    fn one_unit_run_is_run_sequential() {
        let q = random_model(24, 0.3, 220);
        let solver = DabsSolver::new(DabsConfig {
            devices: 3,
            blocks_per_device: 1,
            pool_capacity: 8,
            seed: 96,
            ..DabsConfig::default()
        })
        .unwrap();
        let run = solver.run(&q, Termination::batches(150));
        let seq = solver.run_sequential(&q, Termination::batches(150));
        assert_eq!(run.best, seq.best);
        assert_eq!(run.energy, seq.energy);
        assert_eq!(run.batches, seq.batches);
        assert_eq!(run.flips, seq.flips);
        assert_eq!(run.frequencies, seq.frequencies);
        assert_eq!(run.first_finder, seq.first_finder);
    }

    #[test]
    fn two_unit_run_spends_exactly_its_batch_budget() {
        let q = random_model(24, 0.3, 221);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 2,
            pool_capacity: 8,
            seed: 97,
            ..DabsConfig::default()
        })
        .unwrap();
        for budget in [2u64, 3, 101] {
            let r = solver.run(&q, Termination::batches(budget));
            assert_eq!(r.batches, budget);
            assert_eq!(r.frequencies.total(), budget);
            assert_eq!(q.energy(&r.best), r.energy);
        }
    }

    #[test]
    fn unit_stepped_in_chunks_matches_run_sequential_exactly() {
        let q = random_model(24, 0.3, 216);
        let mk = || {
            DabsSolver::new(DabsConfig {
                devices: 3,
                blocks_per_device: 1,
                pool_capacity: 8,
                seed: 91,
                ..DabsConfig::default()
            })
            .unwrap()
        };
        let reference = mk().run_sequential(&q, Termination::batches(120));
        // Same budget, but stepped in ragged quanta through the unit API.
        let mut unit = mk().start_unit(&q, Termination::batches(120), None, None);
        for quota in [1u64, 7, 3, 50] {
            assert!(!unit.step(quota), "must pause before termination");
        }
        assert_eq!(unit.batches(), 61);
        assert!(unit.step(u64::MAX), "must run to termination");
        assert!(unit.terminated());
        let out = unit.finish();
        assert!(out.found);
        assert_eq!(out.result.energy, reference.energy);
        assert_eq!(out.result.best, reference.best);
        assert_eq!(out.result.batches, reference.batches);
        assert_eq!(out.result.flips, reference.flips);
        assert_eq!(out.result.frequencies, reference.frequencies);
        assert_eq!(out.result.first_finder, reference.first_finder);
        assert_eq!(out.result.restarts, reference.restarts);
    }

    #[test]
    fn warm_started_unit_observes_only_strict_improvements() {
        let q = random_model(24, 0.3, 217);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 8,
            seed: 92,
            ..DabsConfig::default()
        })
        .unwrap();
        // A cold run establishes a strong incumbent...
        let cold = solver.run_sequential(&q, Termination::batches(200));
        // ...and a warm unit seeded with it only reports strict improvements.
        let seen: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut unit = solver.start_unit(
            &q,
            Termination::batches(200),
            Some(Arc::new(move |inc: &Incumbent| {
                sink.lock().unwrap().push(inc.energy);
            })),
            Some(WarmStart {
                solution: cold.best.clone(),
                energy: cold.energy,
            }),
        );
        unit.step(u64::MAX);
        assert_eq!(unit.best_energy().unwrap().min(cold.energy), {
            // warm best is the floor: the unit can only improve on it
            unit.best_energy().unwrap()
        });
        let out = unit.finish();
        assert!(out.found, "warm start alone counts as a found solution");
        assert!(out.result.energy <= cold.energy);
        for e in seen.lock().unwrap().iter() {
            assert!(*e < cold.energy, "observer fired at non-improvement {e}");
        }
    }

    #[test]
    fn warm_start_with_zero_batches_returns_the_seed() {
        let q = random_model(16, 0.4, 218);
        let solver = DabsSolver::new(DabsConfig {
            devices: 1,
            blocks_per_device: 1,
            pool_capacity: 4,
            seed: 93,
            ..DabsConfig::default()
        })
        .unwrap();
        let seed_sol = Solution::zeros(16);
        let seed_energy = q.energy(&seed_sol);
        let stop = Arc::new(StopFlag::new());
        stop.stop();
        let unit = {
            let mut u = solver.start_unit(
                &q,
                Termination::external(Arc::clone(&stop)),
                None,
                Some(WarmStart {
                    solution: seed_sol.clone(),
                    energy: seed_energy,
                }),
            );
            u.step(u64::MAX);
            u
        };
        let out = unit.finish();
        assert!(out.found);
        assert_eq!(out.result.batches, 0);
        assert_eq!(out.result.energy, seed_energy);
        assert_eq!(out.result.best, seed_sol);
    }

    #[test]
    fn unit_outcome_merge_keeps_min_energy_and_sums_counters() {
        let q = random_model(20, 0.3, 219);
        let solver = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 6,
            seed: 94,
            ..DabsConfig::default()
        })
        .unwrap();
        let mut a = solver.start_unit(&q, Termination::batches(40), None, None);
        a.step(u64::MAX);
        let a = a.finish();
        let solver_b = DabsSolver::new(DabsConfig {
            devices: 2,
            blocks_per_device: 1,
            pool_capacity: 6,
            seed: 95,
            ..DabsConfig::default()
        })
        .unwrap();
        let mut b = solver_b.start_unit(&q, Termination::batches(60), None, None);
        b.step(u64::MAX);
        let b = b.finish();
        let (ea, eb) = (a.result.energy, b.result.energy);
        let merged = a.clone().merge(b.clone());
        assert!(merged.found);
        assert_eq!(merged.result.energy, ea.min(eb));
        assert_eq!(merged.result.batches, 100);
        assert_eq!(merged.result.flips, a.result.flips + b.result.flips);
        assert_eq!(
            merged.result.frequencies.total(),
            a.result.frequencies.total() + b.result.frequencies.total()
        );
        // A not-found placeholder (e.g. a revoked unit) never wins the fold.
        let empty = UnitOutcome {
            result: SolveResult {
                best: Solution::zeros(20),
                energy: 0,
                time_to_best: Duration::ZERO,
                elapsed: Duration::ZERO,
                batches: 0,
                flips: 0,
                reached_target: false,
                frequencies: FrequencyReport::new(),
                first_finder: None,
                restarts: 0,
            },
            found: false,
        };
        let folded = empty.merge(merged.clone());
        assert_eq!(folded.result.energy, ea.min(eb));
        assert_eq!(folded.result.batches, 100);
        assert!(folded.found);
    }
}
