//! A unit's threads run its devices' batches side by side and commit them
//! in round-robin order. These tests pin the two halves of that contract:
//!
//! * **Bit-identity** — at every grid point (devices × unit threads ×
//!   kernel × lanes × step quota × termination × warm start × restarts)
//!   the outcome with `T > 1` threads equals the one-thread outcome in
//!   every field, and the observer sees the same incumbents in the same
//!   order.
//! * **Liveness** — every schedule ends: an Xrossover-only portfolio with
//!   one thread per device (every target waits on a neighbour batch still
//!   running), a stop flag tripped mid-run, and an observer that panics on
//!   a helper thread, which must end the step with that panic.

use dabs_core::{
    solver_obs, DabsConfig, DabsSolver, GeneticOp, Incumbent, IncumbentObserver, SolveResult,
    StopFlag, Termination, WarmStart,
};
use dabs_model::{KernelChoice, QuboBuilder, QuboModel, Solution};
use dabs_rng::{Rng64, Xorshift64Star};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn random_model(n: usize, seed: u64, kernel: KernelChoice) -> QuboModel {
    let mut rng = Xorshift64Star::new(seed);
    let mut b = QuboBuilder::new(n);
    for i in 0..n {
        b.add_linear(i, rng.next_range_i64(-60, 60));
        for j in (i + 1)..n {
            if rng.next_bool(0.6) {
                b.add_quadratic(i, j, rng.next_range_i64(-60, 60));
            }
        }
    }
    let mut model = b.build().unwrap();
    model.select_kernel(kernel);
    model
}

/// One unit stepped in `quota`-batch steps on `threads` threads: its
/// result and the energies its observer saw, in order.
fn run_unit(
    solver: &DabsSolver,
    model: &QuboModel,
    term: &Termination,
    warm: Option<&WarmStart>,
    threads: usize,
    quota: u64,
) -> (SolveResult, Vec<i64>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let observer: IncumbentObserver = Arc::new(move |inc: &Incumbent| {
        sink.lock().unwrap().push(inc.energy);
    });
    let mut unit = solver.start_unit(model, term.clone(), Some(observer), warm.cloned());
    unit.set_threads(threads);
    loop {
        let before = unit.batches();
        if unit.step(quota) {
            break;
        }
        // A paused unit has folded exactly its quota: nothing is claimed
        // past it and nothing is left in flight.
        assert_eq!(
            unit.batches() - before,
            quota,
            "a paused step folds its quota"
        );
    }
    let result = unit.finish().result;
    let seen = seen.lock().unwrap().clone();
    (result, seen)
}

fn assert_same(a: &(SolveResult, Vec<i64>), b: &(SolveResult, Vec<i64>), what: &str) {
    let ((ra, sa), (rb, sb)) = (a, b);
    assert_eq!(ra.best, rb.best, "{what}: best");
    assert_eq!(ra.energy, rb.energy, "{what}: energy");
    assert_eq!(ra.batches, rb.batches, "{what}: batches");
    assert_eq!(ra.flips, rb.flips, "{what}: flips");
    assert_eq!(
        ra.reached_target, rb.reached_target,
        "{what}: reached_target"
    );
    assert_eq!(ra.frequencies, rb.frequencies, "{what}: frequencies");
    assert_eq!(ra.first_finder, rb.first_finder, "{what}: first_finder");
    assert_eq!(ra.restarts, rb.restarts, "{what}: restarts");
    assert_eq!(sa, sb, "{what}: observed incumbents");
}

const QUOTAS: [u64; 4] = [1, 3, 32, u64::MAX];

/// The (unit threads, step quota) pairs checked at one grid point. A
/// scalar point checks all of them; a bulk point (a debug-build bulk leg
/// costs about 100 scalar batches) checks one quota per thread count,
/// rotated by `point` so the bulk points together still cover every pair.
fn schedules(lanes: u32, point: usize) -> Vec<(usize, u64)> {
    let all = (1..=4).flat_map(|t| QUOTAS.map(|q| (t, q)));
    if lanes == 0 {
        all.collect()
    } else {
        (1..=4).map(|t| (t, QUOTAS[(point + t) % 4])).collect()
    }
}

#[test]
fn overlapped_units_are_bit_identical_across_the_grid() {
    let overlap_before = solver_obs().overlap_batches.get();
    let (mut points, mut mid_run) = (0usize, 0usize);
    for devices in 1..=5usize {
        for kernel in [KernelChoice::Csr, KernelChoice::Dense] {
            for lanes in [0u32, 64] {
                for warm in [false, true] {
                    for restart in [None, Some(1e9)] {
                        points += 1;
                        let point = points as u64;
                        // QAP encodings (one-hot penalties) keep the
                        // incumbent improving over many batches.
                        let side = if lanes == 0 { 5 + points % 4 } else { 5 };
                        let n = side * side; // 25..=64
                        let qap = dabs_problems::qaplib::tai_like(side, point);
                        let mut model = qap.to_qubo(qap.auto_penalty());
                        model.select_kernel(kernel);
                        let mut cfg = DabsConfig {
                            devices,
                            blocks_per_device: 1,
                            pool_capacity: 2,
                            // Duplicates fill a pool too, so the watchdog
                            // fires within the run.
                            dedup: restart.is_none(),
                            restart_diversity: restart,
                            seed: 40 + point,
                            ..DabsConfig::default()
                        };
                        cfg.params.batch_lanes = lanes;
                        // Short legs: the incumbent improves batch by batch.
                        cfg.params.search_flip_factor = 0.02;
                        cfg.params.batch_flip_factor = 0.05;
                        let solver = DabsSolver::new(cfg).unwrap();
                        let warm = warm.then(|| {
                            let mut rng = Xorshift64Star::new(point);
                            let solution = Solution::random(n, &mut rng);
                            let energy = model.energy(&solution);
                            WarmStart { solution, energy }
                        });
                        let cap = 3 * devices as u64 + 3;
                        let what = format!(
                            "D={devices} {kernel:?} lanes={lanes} warm={} restart={restart:?} n={n}",
                            warm.is_some()
                        );

                        // Batches only, then a target: the middle incumbent
                        // of the batches-only run, first reached where that
                        // run first reached it.
                        let by_batches = Termination::batches(cap);
                        let reference =
                            run_unit(&solver, &model, &by_batches, warm.as_ref(), 1, u64::MAX);
                        assert_eq!(reference.0.batches, cap, "{what}");
                        if restart.is_some() {
                            assert!(reference.0.restarts > 0, "{what}: the watchdog must fire");
                        }
                        let seen = &reference.1;
                        let target = seen[seen.len() / 2];
                        let by_target = Termination::target(target).with_batches(cap);
                        let target_ref =
                            run_unit(&solver, &model, &by_target, warm.as_ref(), 1, u64::MAX);
                        assert!(target_ref.0.reached_target, "{what}");
                        mid_run += usize::from((2..cap).contains(&target_ref.0.batches));

                        for (threads, quota) in schedules(lanes, points) {
                            for (term, expected, name) in [
                                (&by_batches, &reference, "batches"),
                                (&by_target, &target_ref, "target"),
                            ] {
                                let got =
                                    run_unit(&solver, &model, term, warm.as_ref(), threads, quota);
                                let at = format!("{what} {name} T={threads} quota={quota}");
                                assert_same(&got, expected, &at);
                            }
                        }
                    }
                }
            }
        }
    }
    // Most targets must end a run after some batches are folded and before
    // its cap, so that later batches are in flight when it ends.
    assert!(
        2 * mid_run >= points,
        "only {mid_run} of {points} targets were first reached mid-run"
    );
    assert!(
        solver_obs().overlap_batches.get() > overlap_before,
        "multi-thread units must overlap some batches"
    );
}

/// With one thread per device and Xrossover as the only operation, every
/// target reads the neighbour pool as the previous batch left it — a
/// batch that is still running on another thread when the target is due.
#[test]
fn xrossover_only_units_wait_for_their_neighbour_and_stay_identical() {
    for devices in 2..=5usize {
        for kernel in [KernelChoice::Csr, KernelChoice::Dense] {
            let model = random_model(40, 900 + devices as u64, kernel);
            let solver = DabsSolver::new(DabsConfig {
                devices,
                blocks_per_device: 1,
                pool_capacity: 6,
                operations: vec![GeneticOp::Xrossover],
                seed: 7 * devices as u64,
                ..DabsConfig::default()
            })
            .unwrap();
            let term = Termination::batches(24 * devices as u64);
            let reference = run_unit(&solver, &model, &term, None, 1, u64::MAX);
            assert_eq!(
                reference.0.frequencies.op_executed[GeneticOp::Xrossover.index()],
                reference.0.batches
            );
            for quota in [32, u64::MAX] {
                let got = run_unit(&solver, &model, &term, None, devices, quota);
                assert_same(
                    &got,
                    &reference,
                    &format!("D={devices} {kernel:?} quota={quota}"),
                );
            }
        }
    }
}

/// Run `body` on its own thread and fail if it has not returned within
/// `limit`: a deadlocked unit fails the test instead of hanging it. A
/// panic in `body` fails the test with that panic.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the body sent no result"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no result within {limit:?}: a unit deadlocked")
        }
    }
}

#[test]
fn a_panicking_observer_on_a_helper_thread_ends_the_step_with_its_panic() {
    const MESSAGE: &str = "observer failed on purpose";
    let delivered_on_helper = within(Duration::from_secs(120), || {
        let qap = dabs_problems::qaplib::tai_like(7, 5);
        let model = qap.to_qubo(qap.auto_penalty());
        for seed in 0..40u64 {
            let mut cfg = DabsConfig {
                devices: 2,
                blocks_per_device: 1,
                pool_capacity: 6,
                seed,
                ..DabsConfig::default()
            };
            cfg.params.search_flip_factor = 0.02;
            cfg.params.batch_flip_factor = 0.05;
            let solver = DabsSolver::new(cfg).unwrap();
            let term = Termination::batches(400);
            // The one-thread run, a batch at a time: the batch count at
            // which each incumbent energy is first folded.
            let mut reference = solver.start_unit(&model, term.clone(), None, None);
            let mut folded_at = std::collections::HashMap::new();
            loop {
                let done = reference.step(1);
                folded_at
                    .entry(reference.best_energy())
                    .or_insert(reference.batches());
                if done {
                    break;
                }
            }
            // Panic at the k-th call or the first one after it that a
            // helper thread's fold delivers.
            let caller = std::thread::current().id();
            let panicked_on = Arc::new(Mutex::new(None));
            let record = Arc::clone(&panicked_on);
            let calls = Mutex::new(0u32);
            let observer: IncumbentObserver = Arc::new(move |inc: &Incumbent| {
                let mut calls = calls.lock().unwrap();
                *calls += 1;
                if *calls >= 3 && std::thread::current().id() != caller {
                    drop(calls);
                    *record.lock().unwrap() = Some(inc.energy);
                    std::panic::panic_any(MESSAGE);
                }
            });
            let mut unit = solver.start_unit(&model, term, Some(observer), None);
            unit.set_threads(2);
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unit.step(u64::MAX)));
            match caught {
                Err(payload) => {
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&MESSAGE));
                    assert!(unit.terminated(), "a panicked unit is terminated");
                    // The unit ends at the panicking fold: the other
                    // thread folds nothing after it.
                    let energy = panicked_on.lock().unwrap().expect("the observer panicked");
                    let at = folded_at[&Some(energy)];
                    assert_eq!(
                        unit.batches(),
                        at,
                        "the panic at batch {at} must end the step there"
                    );
                    assert!(unit.step(u64::MAX), "a panicked unit stays terminated");
                    return true;
                }
                Ok(done) => assert!(done), // no helper fold improved after call 3
            }
        }
        false
    });
    assert!(
        delivered_on_helper,
        "no run delivered an incumbent on a helper thread after its third"
    );
}

#[test]
fn a_stop_flag_tripped_mid_run_ends_every_unit_thread() {
    let batches = within(Duration::from_secs(120), || {
        let model = random_model(64, 31, KernelChoice::Csr);
        let solver = DabsSolver::new(DabsConfig {
            devices: 3,
            blocks_per_device: 1,
            pool_capacity: 6,
            ..DabsConfig::default()
        })
        .unwrap();
        let stop = Arc::new(StopFlag::new());
        let trip = Arc::clone(&stop);
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            trip.stop();
        });
        let mut unit = solver.start_unit(&model, Termination::external(stop), None, None);
        unit.set_threads(3);
        assert!(unit.step(u64::MAX), "a tripped flag terminates the unit");
        stopper.join().unwrap();
        unit.finish().result.batches
    });
    assert!(batches > 0);
}
