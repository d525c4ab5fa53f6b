//! The inline device and its resident block state.

use crate::{DeviceStats, Packet, SharedBest};
use dabs_model::{BatchKernel, BatchState, CsrKernel, IncrementalState, QuboModel, Solution};
use dabs_rng::{Rng64, Xorshift64Star};
use dabs_search::{BatchSearch, BulkSweep, SearchParams, BULK_CYCLE_ROUNDS};

/// The resident bit-sliced batch of one bulk-mode block: `B` candidate
/// lanes ([`BatchState`]) plus their threshold-accepting sweep
/// ([`BulkSweep`]), persisting across legs like the scalar resident state.
struct BulkResident<K: BatchKernel> {
    state: BatchState<K>,
    sweep: BulkSweep,
    seeded: bool,
}

/// What one bulk leg produced: the winning lane's current solution/energy
/// (so `energy == E(best)` exactly, as with scalar legs) and the flips
/// accepted across all lanes.
struct BulkLeg {
    best: Solution,
    energy: i64,
    flips: u64,
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
    /// of the lockstep sweep, report the winning lane.
    fn leg(&mut self, target: &Solution, rng: &mut Xorshift64Star) -> BulkLeg {
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
        BulkLeg {
            best: self.state.lane_solution(lane),
            energy,
            flips,
        }
    }
}

/// A single-threaded, deterministic device — the one device model every
/// solver run uses: processes one packet per call on a resident block
/// state, with no channels or threads involved. Generic over the
/// energy-kernel backend; [`InlineDevice::new`] builds the CSR-backed
/// default, [`InlineDevice::with_kernel`] takes whichever backend the model
/// selected.
pub struct InlineDevice<'m, K: BatchKernel = CsrKernel<'m>> {
    state: IncrementalState<'m, K>,
    batch: BatchSearch,
    bulk: Option<BulkResident<K>>,
    params: SearchParams,
    rng: Xorshift64Star,
    shared: SharedBest,
    stats: DeviceStats,
}

impl<'m> InlineDevice<'m, CsrKernel<'m>> {
    /// Build a CSR-backed inline device with one resident block.
    pub fn new(model: &'m QuboModel, params: SearchParams, seed: u64) -> Self {
        Self::with_kernel(model, CsrKernel::new(model), params, seed)
    }
}

impl<'m, K: BatchKernel> InlineDevice<'m, K> {
    /// Build an inline device on an explicit kernel backend. A
    /// `params.batch_lanes ≥ 64` switches the device to the bulk resident
    /// mode: `batch_lanes` bit-sliced candidate lanes advanced in lockstep
    /// by the threshold-accepting sweep instead of one scalar block.
    pub fn with_kernel(model: &'m QuboModel, kernel: K, params: SearchParams, seed: u64) -> Self {
        Self {
            state: IncrementalState::with_kernel(model, kernel),
            batch: BatchSearch::new(model.n(), params),
            bulk: (params.batch_lanes >= 64)
                .then(|| BulkResident::new(kernel, params.batch_lanes as usize, seed)),
            params,
            rng: Xorshift64Star::new(seed),
            shared: SharedBest::new(),
            stats: DeviceStats::new(),
        }
    }

    /// Process one request packet synchronously, returning the result.
    pub fn process(&mut self, packet: Packet) -> Packet {
        if let Some(bulk) = self.bulk.as_mut() {
            let leg = bulk.leg(&packet.solution, &mut self.rng);
            let improved = self.shared.merge_lanes(bulk.state.best_energies());
            self.stats.record_batch(leg.flips, improved);
            return packet
                .into_result(leg.best, leg.energy)
                .with_lane_energies(bulk.state.energies().to_vec());
        }
        let out = self.batch.run(
            &mut self.state,
            &packet.solution,
            packet.algorithm,
            &mut self.rng,
        );
        let improved = self.shared.update(out.energy);
        self.stats.record_batch(out.flips, improved);
        packet.into_result(out.best, out.energy)
    }

    /// The configured bit-sliced lane count (0 in scalar mode).
    pub fn batch_lanes(&self) -> u32 {
        self.params.batch_lanes
    }

    /// Device-wide best energy so far.
    pub fn best_energy(&self) -> i64 {
        self.shared.get()
    }

    /// Execution counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Lifetime lazy Δ-segment re-reductions performed by the resident
    /// state (sampled into the solver's observability counters).
    pub fn seg_reductions(&self) -> u64 {
        self.state.seg_reductions()
    }

    /// The resident block's current vector (for tests).
    pub fn resident(&self) -> &Solution {
        self.state.solution()
    }

    /// Re-seat the resident block on `solution`, recomputing energy and
    /// flip deltas. Used to warm-start a device from a sibling unit's
    /// incumbent instead of whatever state it last held. In bulk mode the
    /// warm start fans out across the whole lane batch (lane 0 exact,
    /// siblings perturbed), so a cube-seeded unit hands its vector to all
    /// `B` resident candidates at once.
    pub fn reset_resident(&mut self, solution: &Solution) {
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
    use dabs_model::{DenseKernel, QuboBuilder};
    use dabs_search::MainAlgorithm;

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

    #[test]
    fn inline_device_round_trips_packets() {
        let q = random_model(30, 111);
        let mut dev = InlineDevice::new(&q, SearchParams::default(), 1);
        let mut rng = Xorshift64Star::new(2);
        let req = Packet::request(Solution::random(30, &mut rng), MainAlgorithm::MaxMin, 7);
        let res = dev.process(req);
        assert!(res.is_result());
        assert_eq!(res.genetic_op, 7);
        assert_eq!(res.algorithm, MainAlgorithm::MaxMin);
        assert_eq!(q.energy(&res.solution), res.energy.unwrap());
        assert_eq!(dev.best_energy(), res.energy.unwrap());
        assert_eq!(dev.stats().batches(), 1);
        assert!(dev.stats().flips() > 0);
    }

    #[test]
    fn inline_device_is_deterministic() {
        let q = random_model(25, 112);
        let run = || {
            let mut dev = InlineDevice::new(&q, SearchParams::default(), 9);
            let mut rng = Xorshift64Star::new(10);
            let mut energies = Vec::new();
            for _ in 0..5 {
                let req =
                    Packet::request(Solution::random(25, &mut rng), MainAlgorithm::CyclicMin, 0);
                energies.push(dev.process(req).energy.unwrap());
            }
            energies
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inline_device_kernels_are_bit_identical() {
        // Same model weights, same seeds, different backends: the packet
        // stream must match exactly (the integer delta arithmetic is
        // identical, only the memory layout differs).
        let mut q = random_model(45, 210);
        q.select_kernel(dabs_model::KernelChoice::Dense);
        let mut csr_dev =
            InlineDevice::with_kernel(&q, CsrKernel::new(&q), SearchParams::default(), 3);
        let mut dense_dev =
            InlineDevice::with_kernel(&q, DenseKernel::new(&q), SearchParams::default(), 3);
        let mut rng_a = Xorshift64Star::new(4);
        let mut rng_b = Xorshift64Star::new(4);
        for i in 0..6 {
            let algo = MainAlgorithm::ALL[i % 5];
            let ra = csr_dev.process(Packet::request(
                Solution::random(45, &mut rng_a),
                algo,
                i as u8,
            ));
            let rb = dense_dev.process(Packet::request(
                Solution::random(45, &mut rng_b),
                algo,
                i as u8,
            ));
            assert_eq!(ra.solution, rb.solution);
            assert_eq!(ra.energy, rb.energy);
        }
        assert_eq!(csr_dev.resident(), dense_dev.resident());
        assert_eq!(csr_dev.stats().flips(), dense_dev.stats().flips());
    }

    #[test]
    fn inline_bulk_device_round_trips_lane_results() {
        let q = random_model(50, 310);
        let params = SearchParams {
            batch_lanes: 64,
            ..SearchParams::default()
        };
        let mut dev = InlineDevice::new(&q, params, 1);
        assert_eq!(dev.batch_lanes(), 64);
        let mut rng = Xorshift64Star::new(2);
        for op in 0..3u8 {
            let req = Packet::request(Solution::random(50, &mut rng), MainAlgorithm::MaxMin, op);
            let res = dev.process(req);
            assert!(res.is_result());
            assert_eq!(res.lane_energies.len(), 64);
            // The reported winner is a real lane: its energy is the lane
            // minimum and matches the ground-truth energy of the solution.
            let min = *res.lane_energies.iter().min().unwrap();
            assert_eq!(res.energy.unwrap(), min);
            assert_eq!(q.energy(&res.solution), res.energy.unwrap());
        }
        assert_eq!(dev.stats().batches(), 3);
        assert!(dev.stats().flips() > 0);
        // The shared best was min-merged off the sentinel by the lane bests.
        assert!(dev.best_energy() < i64::MAX);
    }

    #[test]
    fn inline_bulk_device_is_deterministic() {
        let q = random_model(40, 311);
        let params = SearchParams {
            batch_lanes: 128,
            ..SearchParams::default()
        };
        let run = || {
            let mut dev = InlineDevice::new(&q, params, 9);
            let mut rng = Xorshift64Star::new(10);
            let mut out = Vec::new();
            for _ in 0..3 {
                let req =
                    Packet::request(Solution::random(40, &mut rng), MainAlgorithm::CyclicMin, 0);
                let res = dev.process(req);
                out.push((res.energy.unwrap(), res.lane_energies));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bulk_warm_start_fans_out_across_lanes() {
        let q = random_model(48, 312);
        let params = SearchParams {
            batch_lanes: 64,
            ..SearchParams::default()
        };
        let mut dev = InlineDevice::new(&q, params, 5);
        let mut rng = Xorshift64Star::new(6);
        let warm = Solution::random(48, &mut rng);
        dev.reset_resident(&warm);
        let res = dev.process(Packet::request(warm, MainAlgorithm::MaxMin, 0));
        assert_eq!(res.lane_energies.len(), 64);
        assert_eq!(q.energy(&res.solution), res.energy.unwrap());
    }
}
