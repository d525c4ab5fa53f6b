//! `DabsSolver::run` feeds the process-wide `solver.*` counters with exactly
//! the work it reports. The counters are process-wide, so this test has a
//! binary of its own: no other solver runs beside it.

use dabs::core::{solver_obs, DabsConfig, DabsSolver, SolverObs, Termination};
use dabs::model::QuboBuilder;
use dabs::rng::{Rng64, Xorshift64Star};
use dabs::search::MainAlgorithm;

/// Per-algorithm `(flips, batch ns)` counter readings.
fn per_algo(obs: &SolverObs) -> Vec<(u64, u64)> {
    MainAlgorithm::ALL
        .iter()
        .map(|a| {
            let i = a.index();
            (obs.flips_by_algo[i].get(), obs.batch_ns_by_algo[i].get())
        })
        .collect()
}

/// `solver.batch_us.<Algo>` moved exactly for the algorithms whose flips
/// moved between the two readings.
fn assert_batch_time_follows_flips(before: &[(u64, u64)], after: &[(u64, u64)]) {
    for (a, (b, e)) in MainAlgorithm::ALL.iter().zip(before.iter().zip(after)) {
        let flips = e.0 - b.0;
        let ns = e.1 - b.1;
        assert_eq!(flips > 0, ns > 0, "{}: {flips} flips, {ns} ns", a.name());
    }
}

#[test]
fn two_unit_run_moves_solver_counters_by_exactly_its_result() {
    let mut rng = Xorshift64Star::new(31);
    let mut b = QuboBuilder::new(40);
    for i in 0..40 {
        b.add_linear(i, rng.next_range_i64(-9, 9));
        for j in (i + 1)..40 {
            if rng.next_bool(0.3) {
                b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
            }
        }
    }
    let model = b.build().unwrap();
    let solver = DabsSolver::new(DabsConfig {
        devices: 2,
        blocks_per_device: 2,
        pool_capacity: 8,
        seed: 32,
        ..DabsConfig::default()
    })
    .unwrap();
    let obs = solver_obs();
    let (batches0, flips0) = (obs.batches.get(), obs.total_flips());
    let algos0 = per_algo(obs);
    let r = solver.run(&model, Termination::batches(90));
    assert_eq!(r.batches, 90);
    assert_eq!(obs.batches.get() - batches0, r.batches);
    assert_eq!(obs.total_flips() - flips0, r.flips);
    assert_batch_time_follows_flips(&algos0, &per_algo(obs));

    // A two-algorithm portfolio: the other three algorithms' batch time
    // must not move. (Same test, run after the first: the counters are
    // process-wide, so a concurrent test would blur both.)
    let pair = DabsSolver::new(DabsConfig {
        algorithms: vec![MainAlgorithm::RandomMin, MainAlgorithm::MaxMin],
        devices: 2,
        pool_capacity: 8,
        seed: 33,
        ..DabsConfig::default()
    })
    .unwrap();
    let algos1 = per_algo(obs);
    let r = pair.run(&model, Termination::batches(60));
    let algos2 = per_algo(obs);
    assert_batch_time_follows_flips(&algos1, &algos2);
    let moved: Vec<&str> = MainAlgorithm::ALL
        .iter()
        .zip(algos1.iter().zip(&algos2))
        .filter(|(_, (b, e))| e.1 > b.1)
        .map(|(a, _)| a.name())
        .collect();
    assert_eq!(moved, ["MaxMin", "RandomMin"], "{} batches", r.batches);
}
