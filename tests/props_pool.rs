//! Property-based tests on the elastic unit scheduler.
//!
//! Two families of invariants:
//!
//! * **Conservation** — under random submit/cancel interleavings across a
//!   multi-worker pool, no unit is ever lost or duplicated: every job goes
//!   terminal, every planned unit is accounted exactly once, and a job that
//!   folds `done` has executed *exactly* its batch budget (a priority
//!   yield moves the rest of a unit's budget into its continuation unit,
//!   it never mints or burns any).
//! * **Sequential equivalence** — a one-worker pool executes a decomposed
//!   job as the same unit sequence the standalone `execute()` fold runs, so
//!   their merged results are identical field-for-field. Both take their
//!   model from the process-wide model cache; a model from a warm cache
//!   runs the same flips as a cold build.

use dabs::core::SolveResult;
use dabs::model::KernelChoice;
use dabs::server::{execute, ElasticPool, JobRecord, JobRegistry, JobSpec, ProblemSpec};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn spec(n: usize, seed: u64, batches: u64, units: u32, priority: i32) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::random(n, seed),
        devices: 2,
        seed,
        max_batches: Some(batches),
        units: (units > 0).then_some(units),
        priority,
        ..JobSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn no_unit_is_lost_or_duplicated_under_random_interleavings(
        seed in any::<u64>(),
        workers in 1usize..4,
        jobs in 2usize..6,
        cancel_mask in any::<u8>(),
    ) {
        let registry = Arc::new(JobRegistry::new());
        let pool = ElasticPool::spawn(workers, 256);
        let mut records = Vec::new();
        for j in 0..jobs {
            let s = seed.wrapping_add(j as u64);
            let record = registry.register(spec(
                16,
                s,
                200 + (s % 5) * 150,
                (s % 7) as u32, // 0 = pool decides
                (s % 3) as i32 - 1,
            ));
            pool.submit(&record).unwrap();
            // Cancel a pseudo-random subset immediately after admission, so
            // cancels race admission, dispatch, and execution.
            if (cancel_mask >> (j % 8)) & 1 == 1 {
                record.request_cancel();
            }
            records.push(record);
        }
        for record in &records {
            prop_assert!(
                record.wait_terminal(Duration::from_secs(120)),
                "job {} never went terminal",
                record.id
            );
        }
        // Close and join so every still-queued unit has been drained before
        // the unit books are inspected.
        pool.close();
        pool.join();
        for record in &records {
            let (total, started, finished) = record.unit_counts();
            // Conservation: a unit is claimed at most once and ends at most
            // once. (A job cancelled while queued goes terminal directly and
            // its units are dropped unaccounted — so `finished == total` is
            // only owed when the fold decided the phase, i.e. for `done`.)
            prop_assert!(started <= total, "job {}", record.id);
            prop_assert!(finished <= total, "job {}", record.id);
            prop_assert!(finished >= started, "job {}: a claimed unit never ended", record.id);
            let (phase, result, error) = record.snapshot();
            let budget = record.spec.max_batches.unwrap();
            match phase.name() {
                "done" => {
                    prop_assert_eq!(finished, total, "job {}", record.id);
                    let result = result.expect("done carries a result");
                    prop_assert_eq!(
                        result.batches, budget,
                        "job {}: done must spend exactly its budget",
                        record.id
                    );
                }
                "cancelled" => {
                    // Partial work never exceeds the budget (no duplicated
                    // unit), and a result is only present if something ran.
                    if let Some(result) = result {
                        prop_assert!(result.batches <= budget, "job {}", record.id);
                    }
                }
                other => prop_assert!(false, "job {}: unexpected phase {} ({:?})",
                    record.id, other, error),
            }
        }
    }

    #[test]
    fn one_worker_pool_equals_the_sequential_unit_fold(
        seed in any::<u64>(),
        batches in 150u64..900,
        units in 1u32..6,
    ) {
        let make = || spec(24, seed, batches, units, 0);

        // Reference: the standalone fold (same decomposition, FIFO order,
        // incumbent chain between consecutive units, no pool).
        let reference = Arc::new(JobRegistry::new()).register(make());
        execute(&reference);
        let (ref_phase, ref_result, ref_error) = reference.snapshot();
        prop_assert_eq!(ref_phase.name(), "done", "{:?}", ref_error);
        let ref_result = ref_result.unwrap();

        // Same spec through a one-worker pool.
        let registry = Arc::new(JobRegistry::new());
        let pool = ElasticPool::spawn(1, 64);
        let record = registry.register(make());
        pool.submit(&record).unwrap();
        prop_assert!(record.wait_terminal(Duration::from_secs(120)));
        pool.close();
        pool.join();
        let (phase, result, error) = record.snapshot();
        prop_assert_eq!(phase.name(), "done", "{:?}", error);
        let result = result.unwrap();

        prop_assert_eq!(result.energy, ref_result.energy);
        prop_assert_eq!(result.best.clone(), ref_result.best.clone());
        prop_assert_eq!(result.batches, ref_result.batches);
        prop_assert_eq!(result.flips, ref_result.flips);
        prop_assert_eq!(result.restarts, ref_result.restarts);
        prop_assert_eq!(result.reached_target, ref_result.reached_target);
    }
}

fn solved(record: &Arc<JobRecord>) -> SolveResult {
    let (phase, result, error) = record.snapshot();
    assert_eq!(phase.name(), "done", "{error:?}");
    result.expect("a done job has a result")
}

fn assert_same_run(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.energy, b.energy, "{what}: energy");
    assert_eq!(a.best, b.best, "{what}: best");
    assert_eq!(a.flips, b.flips, "{what}: flips");
    assert_eq!(a.batches, b.batches, "{what}: batches");
    assert_eq!(a.reached_target, b.reached_target, "{what}: target");
}

/// The benchmark's five time-to-target instances (generator seed 1, with
/// their stored targets): a job served from a warm model cache runs the
/// same flips as one on a cold build, and a one-worker pool still equals
/// `execute()` when every model comes from the cache.
#[test]
fn warm_cache_runs_equal_cold_builds_on_the_paper_instances() {
    let shapes = [
        ("k2000", 224, -1405),
        ("g22", 200, -191),
        ("g39", 300, -120),
        ("tai", 9, -651745),
        ("qasp", 480, -23234),
    ];
    let pool = ElasticPool::spawn(1, 64);
    let registry = JobRegistry::new();
    for (kind, n, target) in shapes {
        let problem = ProblemSpec {
            kind: kind.into(),
            n: Some(n),
            seed: 1,
            inline: None,
            kernel: KernelChoice::Auto,
        };
        let job = |units| JobSpec {
            problem: problem.clone(),
            seed: 3,
            target: Some(target),
            max_batches: Some(40),
            units,
            ..JobSpec::default()
        };
        // Cold: a fresh build the cache never saw, solved offline.
        let spec = job(None);
        let (fresh, _) = problem.build().unwrap();
        let cold = spec
            .build_solver()
            .unwrap()
            .run_sequential(&fresh, spec.termination());
        // The first job may build; the second is served from the cache.
        for round in ["first", "warm"] {
            let record = registry.register(job(None));
            execute(&record);
            assert_same_run(&solved(&record), &cold, &format!("{kind} {round}"));
        }
        // Two units on a one-worker pool ≡ the same fold under execute().
        let reference = registry.register(job(Some(2)));
        execute(&reference);
        let pooled = registry.register(job(Some(2)));
        pool.submit(&pooled).unwrap();
        assert!(pooled.wait_terminal(Duration::from_secs(120)));
        assert_same_run(
            &solved(&pooled),
            &solved(&reference),
            &format!("{kind} pool"),
        );
    }
    pool.close();
    pool.join();
}

/// A one-worker pool gives each unit all of the host's cores, so on a host
/// with two or more a `devices: 2` unit runs its two devices side by side
/// once its batches average 50 µs or more: after its first 8 batches, and
/// here only in a debug build, where these small specs' batches take
/// 120–400 µs (8–31 µs in release). Its batches still commit in
/// round-robin order: the pool, `execute()` (which takes the same share)
/// and the one-thread `run_sequential` agree field for field on small
/// specs of the paper's families, under a batch cap and under a target
/// that ends the run early.
#[test]
fn overlapped_units_equal_the_sequential_run_on_the_paper_families() {
    let pool = ElasticPool::spawn(1, 64);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let share = pool.gauges().unit_threads;
    assert_eq!(share, cores as u64, "a one-worker pool shares every core");
    if share < 2 {
        eprintln!("one core: every unit runs on one thread on this host");
    }
    let registry = JobRegistry::new();
    for (kind, n) in [("k2000", 64), ("g22", 80), ("tai", 6), ("qasp", 96)] {
        let problem = ProblemSpec {
            kind: kind.into(),
            n: Some(n),
            seed: 2,
            inline: None,
            kernel: KernelChoice::Auto,
        };
        let job = |target| JobSpec {
            problem: problem.clone(),
            devices: 2,
            seed: 5,
            target,
            max_batches: Some(60),
            units: Some(1),
            ..JobSpec::default()
        };
        let (model, _) = problem.build().unwrap();
        let capped = job(None);
        let solver = capped.build_solver().unwrap();
        let sequential = solver.run_sequential(&model, capped.termination());
        for target in [None, Some(sequential.energy)] {
            let spec = job(target);
            let sequential = solver.run_sequential(&model, spec.termination());
            let offline = registry.register(spec.clone());
            execute(&offline);
            let pooled = registry.register(spec);
            pool.submit(&pooled).unwrap();
            assert!(pooled.wait_terminal(Duration::from_secs(120)));
            for (got, what) in [(solved(&offline), "execute"), (solved(&pooled), "pool")] {
                let what = format!("{kind} target={target:?} {what}");
                assert_same_run(&got, &sequential, &what);
                assert_eq!(
                    got.frequencies, sequential.frequencies,
                    "{what}: frequencies"
                );
                assert_eq!(got.first_finder, sequential.first_finder, "{what}: finder");
                assert_eq!(got.restarts, sequential.restarts, "{what}: restarts");
            }
        }
    }
    pool.close();
    pool.join();
}
