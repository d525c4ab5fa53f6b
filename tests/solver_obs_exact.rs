//! `DabsSolver::run` feeds the process-wide `solver.*` counters with exactly
//! the work it reports. The counters are process-wide, so this test has a
//! binary of its own: no other solver runs beside it.

use dabs::core::{solver_obs, DabsConfig, DabsSolver, Termination};
use dabs::model::QuboBuilder;
use dabs::rng::{Rng64, Xorshift64Star};

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
    let r = solver.run(&model, Termination::batches(90));
    assert_eq!(r.batches, 90);
    assert_eq!(obs.batches.get() - batches0, r.batches);
    assert_eq!(obs.total_flips() - flips0, r.flips);
}
