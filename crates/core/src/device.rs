//! The inline device: one simulated GPU (paper §III-B, §V) run as a direct
//! call on its unit's thread.
//!
//! The paper's host sends a device a Table I packet (target vector, void
//! energy, main algorithm, genetic-operation tag) and receives it back with
//! the batch's best vector and energy; here that round trip is one
//! [`InlineDevice::batch`] call, and the operation tag stays with the engine
//! that chose it.

use dabs_model::{BatchKernel, BatchState, IncrementalState, QuboModel, Solution};
use dabs_rng::{Rng64, Xorshift64Star};
use dabs_search::{BatchSearch, BulkSweep, MainAlgorithm, SearchParams, BULK_CYCLE_ROUNDS};

/// The resident bit-sliced batch of one bulk-mode block: `B` candidate
/// lanes ([`BatchState`]) plus their threshold-accepting sweep
/// ([`BulkSweep`]), persisting across legs like the scalar resident state.
struct BulkResident<K: BatchKernel> {
    state: BatchState<K>,
    sweep: BulkSweep,
    seeded: bool,
}

impl<K: BatchKernel> BulkResident<K> {
    fn new(kernel: K, lanes: usize, seed: u64) -> Self {
        Self {
            state: BatchState::new(kernel, lanes),
            sweep: BulkSweep::new(lanes, seed),
            seeded: false,
        }
    }

    /// Seed every lane from `target`: lane 0 exact, siblings perturbed by
    /// ~n/16 random bit flips so the batch starts as a cloud around the
    /// target (the bulk analogue of one warm start; a cube-seeded unit's
    /// incumbent fans out to a whole lane batch this way).
    fn seed_all(&mut self, target: &Solution, rng: &mut Xorshift64Star) {
        let n = self.state.n();
        let spread = (n / 16).max(1);
        for lane in 0..self.state.lanes() {
            let mut sol = target.clone();
            if lane > 0 {
                for _ in 0..spread {
                    sol.flip(rng.next_index(n));
                }
            }
            self.seed_lane(lane, &sol);
        }
        self.seeded = true;
    }

    fn seed_lane(&mut self, lane: usize, sol: &Solution) {
        self.state.seed_lane(lane, sol);
        let amp = self.state.max_abs_delta(lane);
        self.sweep.set_amp(lane, amp);
    }

    /// One bulk leg: inject the target (first leg seeds the whole batch;
    /// later legs replace the worst current lane), run one cooling cycle
    /// of the lockstep sweep, and return the winning lane's current
    /// solution and energy (so `energy == E(best)` exactly, as with scalar
    /// legs) with the flips accepted across all lanes.
    fn leg(&mut self, target: &Solution, rng: &mut Xorshift64Star) -> (Solution, i64, u64) {
        if self.seeded {
            let worst = self
                .state
                .energies()
                .iter()
                .enumerate()
                .max_by_key(|&(_, &e)| e)
                .map(|(l, _)| l)
                .unwrap_or(0);
            self.seed_lane(worst, target);
        } else {
            self.seed_all(target, rng);
        }
        let flips = self.sweep.run(&mut self.state, BULK_CYCLE_ROUNDS);
        let (lane, energy) = self.state.argmin_lane();
        (self.state.lane_solution(lane), energy, flips)
    }
}

/// A single-threaded, deterministic device on a resident block state,
/// generic over the energy-kernel backend the model selected.
pub(crate) struct InlineDevice<'m, K: BatchKernel> {
    state: IncrementalState<'m, K>,
    batch: BatchSearch,
    bulk: Option<BulkResident<K>>,
    rng: Xorshift64Star,
}

impl<'m, K: BatchKernel> InlineDevice<'m, K> {
    /// A `params.batch_lanes ≥ 64` switches the device to the bulk resident
    /// mode: `batch_lanes` bit-sliced candidate lanes advanced in lockstep
    /// by the threshold-accepting sweep instead of one scalar block.
    pub(crate) fn new(model: &'m QuboModel, kernel: K, params: SearchParams, seed: u64) -> Self {
        Self {
            state: IncrementalState::with_kernel(model, kernel),
            batch: BatchSearch::new(model.n(), params),
            bulk: (params.batch_lanes >= 64)
                .then(|| BulkResident::new(kernel, params.batch_lanes as usize, seed)),
            rng: Xorshift64Star::new(seed),
        }
    }

    /// Run one batch towards `target` with `algorithm` (ignored in bulk
    /// mode): returns the batch's best vector, its energy, and the flips
    /// spent.
    pub(crate) fn batch(
        &mut self,
        target: &Solution,
        algorithm: MainAlgorithm,
    ) -> (Solution, i64, u64) {
        if let Some(bulk) = self.bulk.as_mut() {
            return bulk.leg(target, &mut self.rng);
        }
        let out = self
            .batch
            .run(&mut self.state, target, algorithm, &mut self.rng);
        (out.best, out.energy, out.flips)
    }

    /// Lifetime lazy Δ-segment re-reductions performed by the resident
    /// state (sampled into the solver's observability counters).
    pub(crate) fn seg_reductions(&self) -> u64 {
        self.state.seg_reductions()
    }

    /// Re-seat the resident block on `solution`, recomputing energy and
    /// flip deltas. Used to warm-start a device from a sibling unit's
    /// incumbent instead of whatever state it last held. In bulk mode the
    /// warm start fans out across the whole lane batch (lane 0 exact,
    /// siblings perturbed), so a cube-seeded unit hands its vector to all
    /// `B` resident candidates at once.
    pub(crate) fn reset_resident(&mut self, solution: &Solution) {
        if let Some(bulk) = self.bulk.as_mut() {
            bulk.seed_all(solution, &mut self.rng);
        } else {
            self.state.reset_to(solution.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_model::{CsrKernel, DenseKernel, QuboBuilder};

    fn random_model(n: usize, seed: u64) -> QuboModel {
        let mut rng = Xorshift64Star::new(seed);
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, rng.next_range_i64(-9, 9));
            for j in (i + 1)..n {
                if rng.next_bool(0.3) {
                    b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
                }
            }
        }
        b.build().unwrap()
    }

    fn csr_device(
        q: &QuboModel,
        params: SearchParams,
        seed: u64,
    ) -> InlineDevice<'_, CsrKernel<'_>> {
        InlineDevice::new(q, CsrKernel::new(q), params, seed)
    }

    fn bulk_params(lanes: u32) -> SearchParams {
        SearchParams {
            batch_lanes: lanes,
            ..SearchParams::default()
        }
    }

    #[test]
    fn inline_device_batch_reports_exact_energy() {
        let q = random_model(30, 111);
        let mut dev = csr_device(&q, SearchParams::default(), 1);
        let mut rng = Xorshift64Star::new(2);
        let (best, energy, flips) =
            dev.batch(&Solution::random(30, &mut rng), MainAlgorithm::MaxMin);
        assert_eq!(q.energy(&best), energy);
        assert!(flips > 0);
    }

    #[test]
    fn inline_device_is_deterministic() {
        let q = random_model(25, 112);
        let run = || {
            let mut dev = csr_device(&q, SearchParams::default(), 9);
            let mut rng = Xorshift64Star::new(10);
            (0..5)
                .map(|_| {
                    dev.batch(&Solution::random(25, &mut rng), MainAlgorithm::CyclicMin)
                        .1
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inline_device_kernels_are_bit_identical() {
        // Same model weights, same seeds, different backends: the batch
        // results must match exactly (the integer delta arithmetic is
        // identical, only the memory layout differs).
        let mut q = random_model(45, 210);
        q.select_kernel(dabs_model::KernelChoice::Dense);
        let mut csr_dev = csr_device(&q, SearchParams::default(), 3);
        let mut dense_dev = InlineDevice::new(&q, DenseKernel::new(&q), SearchParams::default(), 3);
        let mut rng_a = Xorshift64Star::new(4);
        let mut rng_b = Xorshift64Star::new(4);
        for i in 0..6 {
            let algo = MainAlgorithm::ALL[i % 5];
            let ra = csr_dev.batch(&Solution::random(45, &mut rng_a), algo);
            let rb = dense_dev.batch(&Solution::random(45, &mut rng_b), algo);
            assert_eq!(ra, rb);
        }
        assert_eq!(csr_dev.state.solution(), dense_dev.state.solution());
    }

    #[test]
    fn inline_bulk_device_round_trips_lane_results() {
        let q = random_model(50, 310);
        let mut dev = csr_device(&q, bulk_params(64), 1);
        let mut rng = Xorshift64Star::new(2);
        for _ in 0..3 {
            let (best, energy, flips) =
                dev.batch(&Solution::random(50, &mut rng), MainAlgorithm::MaxMin);
            // The reported winner is a real lane: its energy is the lane
            // minimum and matches the ground-truth energy of the solution.
            let lanes = dev.bulk.as_ref().unwrap().state.energies();
            assert_eq!(lanes.len(), 64);
            assert_eq!(energy, *lanes.iter().min().unwrap());
            assert_eq!(q.energy(&best), energy);
            assert!(flips > 0);
        }
    }

    #[test]
    fn inline_bulk_device_is_deterministic() {
        let q = random_model(40, 311);
        let run = || {
            let mut dev = csr_device(&q, bulk_params(128), 9);
            let mut rng = Xorshift64Star::new(10);
            let mut out = Vec::new();
            for _ in 0..3 {
                let res = dev.batch(&Solution::random(40, &mut rng), MainAlgorithm::CyclicMin);
                out.push((res, dev.bulk.as_ref().unwrap().state.energies().to_vec()));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bulk_warm_start_fans_out_across_lanes() {
        let q = random_model(48, 312);
        let mut dev = csr_device(&q, bulk_params(64), 5);
        let mut rng = Xorshift64Star::new(6);
        let warm = Solution::random(48, &mut rng);
        dev.reset_resident(&warm);
        let bulk = dev.bulk.as_ref().unwrap();
        assert!(bulk.seeded, "a warm start seeds the whole lane batch");
        assert_eq!(
            bulk.state.lane_solution(0),
            warm,
            "lane 0 is the warm start"
        );
        let (best, energy, _) = dev.batch(&warm, MainAlgorithm::MaxMin);
        assert_eq!(q.energy(&best), energy);
    }
}
