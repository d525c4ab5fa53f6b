//! Cross-solver parity: every solver in the repo agrees on small proven
//! optima (they differ only in how fast they get there) — and the two
//! energy-kernel backends are bit-for-bit interchangeable underneath all of
//! them.

use dabs::baselines::bnb::{BnbConfig, BranchAndBound};
use dabs::baselines::exact::exhaustive;
use dabs::baselines::hybrid::{HybridConfig, HybridSolver};
use dabs::baselines::sa::{SaConfig, SimulatedAnnealing};
use dabs::baselines::sb::{SbConfig, SimulatedBifurcation};
use dabs::core::{DabsConfig, DabsSolver, Incumbent, Termination};
use dabs::model::{KernelChoice, KernelKind, QuboBuilder, QuboModel};
use dabs::rng::{Rng64, Xorshift64Star};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn random_model_with_kernel(n: usize, density: f64, seed: u64, kernel: KernelChoice) -> QuboModel {
    let mut rng = Xorshift64Star::new(seed);
    let mut b = QuboBuilder::new(n);
    b.kernel(kernel);
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

fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
    random_model_with_kernel(n, density, seed, KernelChoice::Auto)
}

#[test]
fn all_solvers_agree_on_a_16_bit_instance() {
    let q = random_model(16, 0.4, 41);
    let truth = exhaustive(&q).energy;
    let model = Arc::new(q.clone());

    // DABS
    let mut cfg = DabsConfig::dabs(2, 2);
    cfg.seed = 42;
    let dabs = DabsSolver::new(cfg).unwrap().run(
        &model,
        Termination::target(truth).with_time(Duration::from_secs(30)),
    );
    assert_eq!(dabs.energy, truth, "DABS");

    // branch & bound proves it
    let bnb = BranchAndBound::new(BnbConfig::default()).solve(&q);
    assert!(bnb.proven_optimal);
    assert_eq!(bnb.energy, truth, "BnB");

    // SA reaches it
    let sa = SimulatedAnnealing::new(SaConfig::scaled_to(&q, 500, 43)).solve(&q);
    assert_eq!(sa.energy, truth, "SA");

    // hybrid reaches it
    let hy = HybridSolver::new(HybridConfig {
        time_limit: Duration::from_millis(500),
        seed: 44,
        ..HybridConfig::default()
    })
    .solve(&q);
    assert_eq!(hy.energy, truth, "hybrid");

    // dSB gets within a small gap (analog dynamics, no guarantee)
    let (ising, c) = q.to_ising();
    let sb = SimulatedBifurcation::new(SbConfig {
        steps: 4000,
        seed: 45,
        ..SbConfig::default()
    })
    .solve(&ising);
    let sb_energy = (sb.energy + c) / 4;
    let gap = (sb_energy - truth).abs() as f64 / truth.abs().max(1) as f64;
    assert!(gap <= 0.15, "dSB energy {sb_energy} vs optimum {truth}");
}

/// Run `run_sequential` with an observer, collecting the full incumbent
/// energy trajectory alongside the final result.
fn traced_sequential(
    model: &QuboModel,
    cfg: DabsConfig,
    batches: u64,
) -> (dabs::core::SolveResult, Vec<i64>) {
    let trace: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&trace);
    let result = DabsSolver::new(cfg).unwrap().run_sequential_with_observer(
        model,
        Termination::batches(batches),
        Arc::new(move |inc: &Incumbent| sink.lock().unwrap().push(inc.energy)),
    );
    let trace = trace.lock().unwrap().clone();
    (result, trace)
}

#[test]
fn csr_and_dense_kernels_are_bit_identical_under_run_sequential() {
    // The tentpole contract: the kernel backend changes the memory layout
    // of the flip loop and nothing else. Same instance + same seed must
    // give the same best solution bit for bit, the same flip/batch
    // accounting, and the same energy trajectory, at every density.
    for (n, density, seed) in [(32, 0.1, 61), (48, 0.5, 62), (40, 0.9, 63)] {
        let csr_model = random_model_with_kernel(n, density, seed, KernelChoice::Csr);
        let dense_model = random_model_with_kernel(n, density, seed, KernelChoice::Dense);
        assert_eq!(csr_model, dense_model, "same weights regardless of kernel");
        assert_eq!(csr_model.kernel_kind(), KernelKind::Csr);
        assert_eq!(dense_model.kernel_kind(), KernelKind::Dense);

        let cfg = || {
            let mut c = DabsConfig::dabs(2, 1);
            c.seed = 1000 + seed;
            c
        };
        let (ra, ta) = traced_sequential(&csr_model, cfg(), 150);
        let (rb, tb) = traced_sequential(&dense_model, cfg(), 150);
        assert_eq!(ra.best, rb.best, "n={n} density={density}");
        assert_eq!(ra.energy, rb.energy, "n={n} density={density}");
        assert_eq!(ra.batches, rb.batches, "n={n} density={density}");
        assert_eq!(ra.flips, rb.flips, "n={n} density={density}");
        assert_eq!(ra.frequencies, rb.frequencies, "n={n} density={density}");
        assert_eq!(ra.first_finder, rb.first_finder, "n={n} density={density}");
        assert_eq!(ta, tb, "incumbent trajectory n={n} density={density}");
        assert!(!ta.is_empty(), "trajectory must contain the first best");
    }
}

#[test]
fn auto_kernel_matches_forced_kernels_exactly() {
    // Whatever `auto` picks must be one of the two forced behaviours — no
    // third code path. A dense instance auto-selects the dense backend and
    // reproduces its trajectory exactly.
    let auto_model = random_model_with_kernel(36, 0.8, 71, KernelChoice::Auto);
    assert_eq!(auto_model.kernel_kind(), KernelKind::Dense);
    let forced = random_model_with_kernel(36, 0.8, 71, KernelChoice::Dense);
    let mut cfg = DabsConfig::dabs(2, 1);
    cfg.seed = 9;
    let (ra, ta) = traced_sequential(&auto_model, cfg.clone(), 120);
    let (rb, tb) = traced_sequential(&forced, cfg, 120);
    assert_eq!(ra.best, rb.best);
    assert_eq!(ra.energy, rb.energy);
    assert_eq!(ta, tb);
}

#[test]
fn threaded_run_on_dense_kernel_reaches_the_proven_optimum() {
    // The parallel run dispatches the kernel once per unit thread; make
    // sure a dense model solves correctly end to end there too.
    let q = random_model_with_kernel(16, 0.6, 72, KernelChoice::Dense);
    let truth = exhaustive(&q).energy;
    let model = Arc::new(q.clone());
    let mut cfg = DabsConfig::dabs(2, 2);
    cfg.seed = 73;
    let r = DabsSolver::new(cfg).unwrap().run(
        &model,
        Termination::target(truth).with_time(Duration::from_secs(30)),
    );
    assert_eq!(r.energy, truth);
    assert_eq!(q.energy(&r.best), truth);
}

#[test]
fn energies_are_internally_consistent_across_solvers() {
    // whatever each solver returns, its reported energy must match the
    // model evaluation of its reported solution
    let q = random_model(24, 0.3, 46);
    let model = Arc::new(q.clone());

    let mut cfg = DabsConfig::dabs(2, 1);
    cfg.seed = 47;
    let dabs = DabsSolver::new(cfg)
        .unwrap()
        .run(&model, Termination::time(Duration::from_millis(400)));
    assert_eq!(q.energy(&dabs.best), dabs.energy);

    let sa = SimulatedAnnealing::new(SaConfig::scaled_to(&q, 50, 48)).solve(&q);
    assert_eq!(q.energy(&sa.best), sa.energy);

    let bnb = BranchAndBound::new(BnbConfig {
        time_limit: Duration::from_millis(200),
        heuristic_restarts: 4,
        seed: 49,
    })
    .solve(&q);
    assert_eq!(q.energy(&bnb.best), bnb.energy);

    let hy = HybridSolver::new(HybridConfig {
        time_limit: Duration::from_millis(150),
        seed: 50,
        ..HybridConfig::default()
    })
    .solve(&q);
    assert_eq!(q.energy(&hy.best), hy.energy);
}

// ---------------------------------------------------------------------------
// Segment-aggregate selection vs the pre-segment full-scan reference
// ---------------------------------------------------------------------------

/// Run one strategy twice — once through the segment-aggregate selection
/// primitives, once through the preserved full-scan path in
/// `dabs_search::reference` — from identical states under identical RNG
/// streams, and demand bit-identical outcomes: final vector, energy, flip
/// count, best-tracker contents, and RNG stream position.
fn assert_strategy_parity(q: &QuboModel, instance: &str, seed: u64, flips: u64, which: &str) {
    use dabs::model::{BestTracker, IncrementalState, Solution};
    use dabs::search::{reference, TabuList};

    let n = q.n();
    let mut start_rng = Xorshift64Star::new(seed ^ 0x57A7);
    let start = Solution::random(n, &mut start_rng);

    let mut st_seg = IncrementalState::from_solution(q, start.clone());
    let mut st_scan = IncrementalState::from_solution(q, start);
    let mut best_seg = BestTracker::unbounded(n);
    let mut best_scan = BestTracker::unbounded(n);
    let mut tabu_seg = TabuList::new(n, 8);
    let mut tabu_scan = TabuList::new(n, 8);
    let mut rng_seg = Xorshift64Star::new(seed ^ 0xF11);
    let mut rng_scan = Xorshift64Star::new(seed ^ 0xF11);

    match which {
        "maxmin" => {
            dabs::search::max_min(
                &mut st_seg,
                &mut best_seg,
                &mut tabu_seg,
                &mut rng_seg,
                flips,
            );
            reference::max_min_scan(
                &mut st_scan,
                &mut best_scan,
                &mut tabu_scan,
                &mut rng_scan,
                flips,
            );
        }
        "positivemin" => {
            dabs::search::positive_min(
                &mut st_seg,
                &mut best_seg,
                &mut tabu_seg,
                &mut rng_seg,
                flips,
            );
            reference::positive_min_scan(
                &mut st_scan,
                &mut best_scan,
                &mut tabu_scan,
                &mut rng_scan,
                flips,
            );
        }
        "randommin" => {
            dabs::search::random_min(
                &mut st_seg,
                &mut best_seg,
                &mut tabu_seg,
                &mut rng_seg,
                flips,
            );
            reference::random_min_ln(
                &mut st_scan,
                &mut best_scan,
                &mut tabu_scan,
                &mut rng_scan,
                flips,
            );
        }
        "cyclicmin" => {
            dabs::search::cyclic_min(&mut st_seg, &mut best_seg, &mut tabu_seg, flips);
            reference::cyclic_min_scan(&mut st_scan, &mut best_scan, &mut tabu_scan, flips);
        }
        "greedy" => {
            dabs::search::greedy(&mut st_seg, &mut best_seg, &mut tabu_seg, flips);
            reference::greedy_scan(&mut st_scan, &mut best_scan, &mut tabu_scan, flips);
        }
        other => panic!("unknown strategy {other}"),
    }

    let label = format!("{which} {instance} seed={seed}");
    assert_eq!(st_seg.solution(), st_scan.solution(), "{label}: vector");
    assert_eq!(st_seg.energy(), st_scan.energy(), "{label}: energy");
    assert_eq!(st_seg.flips(), st_scan.flips(), "{label}: flip accounting");
    assert_eq!(
        best_seg.energy(),
        best_scan.energy(),
        "{label}: best energy"
    );
    assert_eq!(
        best_seg.solution(),
        best_scan.solution(),
        "{label}: best vector"
    );
    assert_eq!(
        rng_seg.next_u64(),
        rng_scan.next_u64(),
        "{label}: RNG stream position"
    );
    st_seg.assert_consistent();
}

/// The G-set shapes of perfbench's `tts_paper` instance set: average
/// degree ≈ 2 with unit (G22) and ±1 (G39) weights. Their gains are small
/// integers, many exactly 0, so at a local minimum most segments hold a
/// gain ≤ 0 and threshold selections keep large candidate sets.
fn gset_shapes() -> [(&'static str, QuboModel, u64); 2] {
    use dabs::problems::gset;
    [
        (
            "g22_like(200, 200)",
            gset::g22_like(200, 200, 22).to_qubo(),
            2_200,
        ),
        (
            "g39_like(300, 270)",
            gset::g39_like(300, 270, 39).to_qubo(),
            3_900,
        ),
    ]
}

#[test]
fn segment_strategies_are_bit_identical_to_the_scan_reference() {
    // Word-boundary sizes stress partial tail segments; the density spread
    // covers tie-heavy and spread-out Δ distributions, and the G-set shapes
    // the mostly-zero gains of sparse unit-weight instances.
    let mut cases: Vec<(String, QuboModel, u64)> = [
        (63usize, 0.1),
        (64, 0.5),
        (65, 0.9),
        (129, 0.05),
        (200, 0.3),
    ]
    .into_iter()
    .map(|(n, density)| {
        let seed = 1_000 + n as u64;
        let q = random_model(n, density, seed);
        (format!("n={n} density={density}"), q, seed)
    })
    .collect();
    cases.extend(
        gset_shapes()
            .into_iter()
            .map(|(name, q, seed)| (name.to_string(), q, seed)),
    );
    for (instance, q, seed) in &cases {
        for which in ["maxmin", "positivemin", "randommin", "cyclicmin", "greedy"] {
            assert_strategy_parity(q, instance, *seed, 1_500, which);
        }
    }
}

#[test]
fn segment_batch_composite_is_bit_identical_to_the_scan_reference() {
    // The §III-B shape: alternating greedy descents and main-algorithm
    // legs, as BatchSearch runs between targets — the production flip
    // loop — with a PositiveMin and a MaxMin leg per round, on a spread
    // random instance and on the G-set shapes.
    use dabs::model::{BestTracker, IncrementalState, Solution};
    use dabs::search::{reference, TabuList};

    let mut cases = vec![("n=150 density=0.2", random_model(150, 0.2, 77), 77u64)];
    cases.extend(gset_shapes());
    for (instance, q, seed) in cases {
        let n = q.n();
        let mut start_rng = Xorshift64Star::new(seed + 1);
        let start = Solution::random(n, &mut start_rng);
        let mut st_seg = IncrementalState::from_solution(&q, start.clone());
        let mut st_scan = IncrementalState::from_solution(&q, start);
        let mut best_seg = BestTracker::unbounded(n);
        let mut best_scan = BestTracker::unbounded(n);
        let mut tabu_seg = TabuList::new(n, 8);
        let mut tabu_scan = TabuList::new(n, 8);
        let mut rng_seg = Xorshift64Star::new(seed + 2);
        let mut rng_scan = Xorshift64Star::new(seed + 2);
        let leg = (n as u64).div_ceil(10);
        for round in 0..25 {
            for main in ["positivemin", "maxmin"] {
                dabs::search::greedy(&mut st_seg, &mut best_seg, &mut tabu_seg, u64::MAX);
                reference::greedy_scan(&mut st_scan, &mut best_scan, &mut tabu_scan, u64::MAX);
                if main == "positivemin" {
                    dabs::search::positive_min(
                        &mut st_seg,
                        &mut best_seg,
                        &mut tabu_seg,
                        &mut rng_seg,
                        leg,
                    );
                    reference::positive_min_scan(
                        &mut st_scan,
                        &mut best_scan,
                        &mut tabu_scan,
                        &mut rng_scan,
                        leg,
                    );
                } else {
                    dabs::search::max_min(
                        &mut st_seg,
                        &mut best_seg,
                        &mut tabu_seg,
                        &mut rng_seg,
                        leg,
                    );
                    reference::max_min_scan(
                        &mut st_scan,
                        &mut best_scan,
                        &mut tabu_scan,
                        &mut rng_scan,
                        leg,
                    );
                }
                let label = format!("{instance} round {round} {main}");
                assert_eq!(st_seg.solution(), st_scan.solution(), "{label}: vector");
                assert_eq!(st_seg.flips(), st_scan.flips(), "{label}: flips");
                assert_eq!(rng_seg.next_u64(), rng_scan.next_u64(), "{label}: RNG");
            }
        }
        assert_eq!(best_seg.energy(), best_scan.energy(), "{instance}");
        assert_eq!(best_seg.solution(), best_scan.solution(), "{instance}");
        st_seg.assert_consistent();
    }
}

#[test]
fn randommin_batch_composite_is_bit_identical_to_the_ln_reference() {
    // The §III-B shape with RandomMin as the main algorithm: alternating
    // greedy descents and RandomMin legs of ⌈0.1·n⌉ flips, so every leg
    // walks the whole cubic schedule from the 32/n floor up to p = 1 —
    // the gap sampler against the libm `ln` gap it replaced.
    use dabs::model::{BestTracker, IncrementalState, Solution};
    use dabs::search::{reference, TabuList};

    for (n, density, seed) in [(150usize, 0.2, 81u64), (480, 0.02, 82), (81, 0.9, 83)] {
        let q = random_model(n, density, seed);
        let mut start_rng = Xorshift64Star::new(seed + 100);
        let start = Solution::random(n, &mut start_rng);
        let mut st_new = IncrementalState::from_solution(&q, start.clone());
        let mut st_ln = IncrementalState::from_solution(&q, start);
        let mut best_new = BestTracker::unbounded(n);
        let mut best_ln = BestTracker::unbounded(n);
        let mut tabu_new = TabuList::new(n, 8);
        let mut tabu_ln = TabuList::new(n, 8);
        let mut rng_new = Xorshift64Star::new(seed + 200);
        let mut rng_ln = Xorshift64Star::new(seed + 200);
        let leg = (n as u64).div_ceil(10);
        for round in 0..25 {
            dabs::search::greedy(&mut st_new, &mut best_new, &mut tabu_new, u64::MAX);
            dabs::search::greedy(&mut st_ln, &mut best_ln, &mut tabu_ln, u64::MAX);
            dabs::search::random_min(&mut st_new, &mut best_new, &mut tabu_new, &mut rng_new, leg);
            reference::random_min_ln(&mut st_ln, &mut best_ln, &mut tabu_ln, &mut rng_ln, leg);
            let label = format!("n={n} round {round}");
            assert_eq!(st_new.solution(), st_ln.solution(), "{label}: vector");
            assert_eq!(st_new.energy(), st_ln.energy(), "{label}: energy");
            assert_eq!(st_new.flips(), st_ln.flips(), "{label}: flips");
            assert_eq!(rng_new.next_u64(), rng_ln.next_u64(), "{label}: RNG");
        }
        assert_eq!(best_new.energy(), best_ln.energy(), "n={n}: best energy");
        assert_eq!(
            best_new.solution(),
            best_ln.solution(),
            "n={n}: best vector"
        );
        st_new.assert_consistent();
    }
}

#[test]
fn randommin_give_back_matches_the_ln_reference() {
    // RandomMin takes its draws 32 at a time and hands a block's unused
    // draws back before `fallback_bit` draws and when a leg returns. Tabu
    // tenure 2n: once the walk has flipped every bit, every sampled
    // candidate is tabu, so each iteration gives its block back and falls
    // back right after; legs of 1 to 17 flips end at many lane offsets of
    // a block. After every leg the vector, the best and the RNG position
    // must equal the draw-by-draw `ln` reference's.
    use dabs::model::{BestTracker, IncrementalState, Solution};
    use dabs::search::{reference, TabuList};

    for (n, seed) in [(40usize, 91u64), (64, 92), (100, 93), (333, 94)] {
        let q = random_model(n, 0.1, seed);
        let start = Solution::random(n, &mut Xorshift64Star::new(seed + 100));
        let mut st_new = IncrementalState::from_solution(&q, start.clone());
        let mut st_ln = IncrementalState::from_solution(&q, start);
        let mut best_new = BestTracker::unbounded(n);
        let mut best_ln = BestTracker::unbounded(n);
        let mut tabu_new = TabuList::new(n, 2 * n as u64);
        let mut tabu_ln = TabuList::new(n, 2 * n as u64);
        let mut rng_new = Xorshift64Star::new(seed + 200);
        let mut rng_ln = Xorshift64Star::new(seed + 200);
        let mut all_tabu_legs = 0;
        for leg in 0..250u64 {
            all_tabu_legs += (0..n).all(|i| tabu_new.is_tabu(i)) as u32;
            let flips = 1 + leg * 7 % 17;
            dabs::search::random_min(
                &mut st_new,
                &mut best_new,
                &mut tabu_new,
                &mut rng_new,
                flips,
            );
            reference::random_min_ln(&mut st_ln, &mut best_ln, &mut tabu_ln, &mut rng_ln, flips);
            let label = format!("n={n} leg {leg} ({flips} flips)");
            assert_eq!(st_new.solution(), st_ln.solution(), "{label}: vector");
            assert_eq!(st_new.flips(), st_ln.flips(), "{label}: flips");
            assert_eq!(best_new.energy(), best_ln.energy(), "{label}: best energy");
            assert_eq!(
                best_new.solution(),
                best_ln.solution(),
                "{label}: best vector"
            );
            assert_eq!(rng_new, rng_ln, "{label}: RNG position");
        }
        assert!(
            all_tabu_legs >= 50,
            "n={n}: only {all_tabu_legs} legs began with every bit tabu"
        );
        st_new.assert_consistent();
    }
}
