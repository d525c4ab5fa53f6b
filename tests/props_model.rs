//! Property-based tests on the model layer: energies, deltas, conversions,
//! solution-vector algebra, and cross-backend kernel parity.

use dabs::model::{
    IncrementalState, IsingModel, KernelChoice, KernelKind, QuboBuilder, QuboKernel, QuboModel,
    Solution,
};
use proptest::prelude::*;

/// The density grid the kernel-parity properties sweep: sparse enough that
/// CSR is the auto pick, the auto crossover region, and near-complete.
const PARITY_DENSITIES: [f64; 3] = [0.05, 0.5, 0.95];

/// Deterministic random model at a target density with a forced backend.
fn density_model(n: usize, density: f64, seed: u64, kernel: KernelChoice) -> QuboModel {
    use dabs::rng::Rng64;
    let mut rng = dabs::rng::Xorshift64Star::new(seed);
    let mut b = QuboBuilder::new(n);
    b.kernel(kernel);
    for i in 0..n {
        b.add_linear(i, rng.next_range_i64(-20, 20));
        for j in (i + 1)..n {
            if rng.next_bool(density) {
                b.add_quadratic(i, j, rng.next_range_i64(-20, 20));
            }
        }
    }
    b.build().unwrap()
}

/// Max-cut QUBO of a G22-shaped graph: `n` distinct unit edges over `n`
/// nodes (average degree 2), with dense storage built so both kernels run
/// on it. Its gains are small integers, many of them exactly 0 at a local
/// minimum, so most segments hold a gain ≤ 0 and threshold selections keep
/// large candidate sets: the tie-heavy shape of the G-set instances.
fn tie_heavy_model(n: usize, seed: u64) -> QuboModel {
    let mut q = dabs::problems::gset::g22_like(n, n, seed).to_qubo();
    q.select_kernel(KernelChoice::Dense);
    q
}

/// The two selection shapes: a 0.3-density model with ±20 weights (few
/// ties) and the tie-heavy G22-shaped one, both with dense storage.
fn selection_models(n: usize, seed: u64) -> [(&'static str, QuboModel); 2] {
    [
        (
            "density 0.3",
            density_model(n, 0.3, seed, KernelChoice::Dense),
        ),
        ("tie-heavy", tie_heavy_model(n, seed)),
    ]
}

/// CSR and dense states on `q` from one random start after the same
/// `steps` random flips (both drawn from `walk_seed`), then, when
/// `descend`, steepest descent to a local minimum (no negative gain left).
/// Both kernels give bit-identical gains, so the two states walk and
/// descend alike.
fn selection_states(
    q: &QuboModel,
    walk_seed: u64,
    steps: usize,
    descend: bool,
) -> (
    IncrementalState<'_>,
    IncrementalState<'_, dabs::model::DenseKernel<'_>>,
) {
    use dabs::rng::Rng64;
    let n = q.n();
    let mut rng = dabs::rng::Xorshift64Star::new(walk_seed);
    let start = Solution::random(n, &mut rng);
    let mut csr = IncrementalState::from_solution(q, start.clone());
    let mut dense = IncrementalState::from_solution_dense(q, start);
    for _ in 0..steps {
        let bit = rng.next_index(n);
        csr.flip(bit);
        dense.flip(bit);
    }
    if descend {
        descend_to_local_min(&mut csr);
        descend_to_local_min(&mut dense);
    }
    (csr, dense)
}

/// Flip the lowest-index steepest-descent bit until no gain is negative.
fn descend_to_local_min<K: QuboKernel>(st: &mut IncrementalState<'_, K>) {
    loop {
        let (k, d) = st.min_delta();
        if d >= 0 {
            return;
        }
        st.flip(k);
    }
}

/// `select_le` and `select_le_f64` against the naive full-scan reservoir
/// on one state: they must pick the same bit and consume the same number
/// of RNG draws.
fn check_select_le<K: QuboKernel>(
    st: &mut IncrementalState<'_, K>,
    bound: i64,
    seed: u64,
    label: &str,
) -> Result<(), TestCaseError> {
    use dabs::rng::Rng64;
    // An arbitrary tabu-ish filter.
    let blocked = |k: usize| !k.is_multiple_of(5);
    // i64 bound
    let mut rng_a = dabs::rng::Xorshift64Star::new(seed ^ 1);
    let mut rng_b = dabs::rng::Xorshift64Star::new(seed ^ 1);
    let fast = st.select_le(bound, &mut rng_a, blocked);
    let mut naive = None;
    let mut count = 0u64;
    for (k, &d) in st.deltas().iter().enumerate() {
        if d <= bound && blocked(k) {
            count += 1;
            if rng_b.next_below(count) == 0 {
                naive = Some(k);
            }
        }
    }
    prop_assert_eq!(fast, naive, "{} bound {}", label, bound);
    prop_assert_eq!(
        rng_a.next_u64(),
        rng_b.next_u64(),
        "i64 stream diverged: {}",
        label
    );
    // f64 bound (MaxMin's threshold shape)
    let fbound = bound as f64 + 0.25;
    let mut rng_a = dabs::rng::Xorshift64Star::new(seed ^ 2);
    let mut rng_b = dabs::rng::Xorshift64Star::new(seed ^ 2);
    let fast = st.select_le_f64(fbound, &mut rng_a, blocked);
    let mut naive = None;
    let mut count = 0u64;
    for (k, &d) in st.deltas().iter().enumerate() {
        if (d as f64) <= fbound && blocked(k) {
            count += 1;
            if rng_b.next_below(count) == 0 {
                naive = Some(k);
            }
        }
    }
    prop_assert_eq!(fast, naive, "{} f64 bound {}", label, fbound);
    prop_assert_eq!(
        rng_a.next_u64(),
        rng_b.next_u64(),
        "f64 stream diverged: {}",
        label
    );
    Ok(())
}

/// Strategy: a random QUBO with up to `n` variables and bounded weights.
fn arb_qubo(max_n: usize) -> impl Strategy<Value = QuboModel> {
    (2..=max_n).prop_flat_map(|n| {
        let diag = proptest::collection::vec(-20i64..=20, n);
        let edges = proptest::collection::vec(
            ((0..n), (0..n), -20i64..=20).prop_filter("no self-loops", |(i, j, _)| i != j),
            0..(n * 2),
        );
        (Just(n), diag, edges).prop_map(|(n, diag, edges)| {
            let mut b = QuboBuilder::new(n);
            for (i, d) in diag.into_iter().enumerate() {
                b.add_linear(i, d);
            }
            for (i, j, w) in edges {
                b.add_quadratic(i, j, w);
            }
            b.build().unwrap()
        })
    })
}

/// Strategy: a bit vector of length n as bools.
fn arb_bits(n: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_equals_energy_difference(q in arb_qubo(24), seed in any::<u64>()) {
        let n = q.n();
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        let x = Solution::random(n, &mut rng);
        let e = q.energy(&x);
        for i in 0..n {
            let mut y = x.clone();
            y.flip(i);
            prop_assert_eq!(q.delta(&x, i), q.energy(&y) - e);
        }
    }

    #[test]
    fn energy_of_zero_vector_is_zero(q in arb_qubo(24)) {
        prop_assert_eq!(q.energy(&Solution::zeros(q.n())), 0);
    }

    #[test]
    fn ising_qubo_roundtrip_preserves_energy(q in arb_qubo(20), seed in any::<u64>()) {
        let (ising, c) = q.to_ising();
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        for _ in 0..8 {
            let x = Solution::random(q.n(), &mut rng);
            // H(S) = 4·E(X) − C
            prop_assert_eq!(ising.hamiltonian(&x), 4 * q.energy(&x) - c);
        }
    }

    #[test]
    fn ising_to_qubo_offset_identity(
        n in 3usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        use dabs::rng::Rng64;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_bool(0.4) {
                    edges.push((i, j, rng.next_range_i64(-5, 5)));
                }
            }
        }
        let biases: Vec<i64> = (0..n).map(|_| rng.next_range_i64(-5, 5)).collect();
        let ising = IsingModel::new(n, &edges, biases).unwrap();
        let (qubo, offset) = ising.to_qubo();
        for _ in 0..8 {
            let x = Solution::random(n, &mut rng);
            prop_assert_eq!(ising.hamiltonian(&x), qubo.energy(&x) + offset);
        }
    }

    #[test]
    fn hamming_is_a_metric(a in arb_bits(64), b in arb_bits(64), c in arb_bits(64)) {
        let (sa, sb, sc) = (
            Solution::from_bits(&a),
            Solution::from_bits(&b),
            Solution::from_bits(&c),
        );
        prop_assert_eq!(sa.hamming(&sa), 0);
        prop_assert_eq!(sa.hamming(&sb), sb.hamming(&sa));
        prop_assert!(sa.hamming(&sc) <= sa.hamming(&sb) + sb.hamming(&sc));
    }

    #[test]
    fn flip_is_involutive(bits in arb_bits(100), idx in 0usize..100) {
        let mut s = Solution::from_bits(&bits);
        let orig = s.clone();
        s.flip(idx);
        prop_assert_ne!(&s, &orig);
        s.flip(idx);
        prop_assert_eq!(s, orig);
    }

    #[test]
    fn crossover_child_within_parent_hull(a in arb_bits(80), b in arb_bits(80), seed in any::<u64>()) {
        let (sa, sb) = (Solution::from_bits(&a), Solution::from_bits(&b));
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        let child = sa.crossover(&sb, &mut rng);
        for i in 0..80 {
            prop_assert!(child.get(i) == sa.get(i) || child.get(i) == sb.get(i));
        }
        // child is at most as far from each parent as the parents are apart
        prop_assert!(child.hamming(&sa) + child.hamming(&sb) == sa.hamming(&sb));
    }

    #[test]
    fn count_ones_matches_iter(bits in arb_bits(130)) {
        let s = Solution::from_bits(&bits);
        prop_assert_eq!(s.count_ones(), s.iter_ones().count());
        prop_assert_eq!(s.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn incremental_state_matches_recompute_on_both_backends(
        n in 8usize..48,
        seed in any::<u64>(),
        steps in 1usize..100,
    ) {
        // For random models at each parity density, the incremental
        // energy/deltas after a random flip sequence must equal a
        // from-scratch `model.energy()` / `model.delta()` recompute —
        // on BOTH kernel backends, flip for flip.
        use dabs::rng::Rng64;
        for &density in &PARITY_DENSITIES {
            let q = density_model(n, density, seed, KernelChoice::Dense);
            let mut rng = dabs::rng::Xorshift64Star::new(seed ^ 0x0D15_EA5E);
            let start = Solution::random(n, &mut rng);
            let mut csr = IncrementalState::from_solution(&q, start.clone());
            let mut dense = IncrementalState::from_solution_dense(&q, start);
            for _ in 0..steps {
                let bit = rng.next_index(n);
                let ec = csr.flip(bit);
                let ed = dense.flip(bit);
                prop_assert_eq!(ec, ed, "density {}", density);
            }
            let x = csr.solution().clone();
            prop_assert_eq!(dense.solution(), &x);
            // from-scratch ground truth
            prop_assert_eq!(csr.energy(), q.energy(&x), "density {}", density);
            for i in 0..n {
                let truth = q.delta(&x, i);
                prop_assert_eq!(csr.delta(i), truth, "csr Δ_{} density {}", i, density);
                prop_assert_eq!(dense.delta(i), truth, "dense Δ_{} density {}", i, density);
            }
        }
    }

    #[test]
    fn segment_aggregates_match_fresh_reduction_after_flip_walks(
        seed in any::<u64>(),
        steps in 1usize..80,
    ) {
        // The Δ-segment aggregate layer (min/argmin/max per 64-gain
        // segment, incrementally maintained by tighten-or-mark updates)
        // must equal a fresh full-array reduction after ANY flip sequence,
        // on BOTH kernel backends, across the parity densities, a
        // tie-heavy G22-shaped model and the word-boundary sizes that
        // stress partial tail segments, after the walk and at the greedy
        // local minimum below it (where the tie-heavy model's segments
        // mostly hold a gain ≤ 0, so the positive min must fold them).
        // `assert_consistent` refreshes the aggregates and compares every
        // segment against `reduce_min_argmin_max` ground truth.
        for &n in &[63usize, 64, 65, 128, 129] {
            let models = PARITY_DENSITIES
                .iter()
                .map(|&density| {
                    let q = density_model(n, density, seed ^ n as u64, KernelChoice::Dense);
                    (format!("density {density}"), q)
                })
                .chain([("tie-heavy".to_string(), tie_heavy_model(n, seed ^ n as u64))]);
            for (shape, q) in models {
                for descend in [false, true] {
                    let (mut csr, mut dense) = selection_states(&q, seed ^ 0xA66E, steps, descend);
                    csr.assert_consistent();
                    dense.assert_consistent();
                    // the aggregate-backed argmin/min/max equal a naive scan
                    let naive_min = *csr.deltas().iter().min().unwrap();
                    let naive_arg = csr.deltas().iter().position(|&d| d == naive_min).unwrap();
                    let naive_max = *csr.deltas().iter().max().unwrap();
                    let naive = (naive_arg, naive_min, naive_max);
                    prop_assert_eq!(csr.min_max_argmin(), naive, "{} descend={}", shape, descend);
                    prop_assert_eq!(dense.min_max_argmin(), naive, "{} descend={}", shape, descend);
                    let naive_posmin = csr
                        .deltas()
                        .iter()
                        .copied()
                        .filter(|&d| d > 0)
                        .min()
                        .unwrap_or(i64::MAX);
                    prop_assert_eq!(csr.positive_min_delta(), naive_posmin, "{} descend={}", shape, descend);
                    prop_assert_eq!(dense.positive_min_delta(), naive_posmin, "{} descend={}", shape, descend);
                }
            }
        }
    }

    #[test]
    fn select_le_is_stream_identical_to_the_naive_reservoir(
        n in 8usize..140,
        seed in any::<u64>(),
        steps in 0usize..60,
        bound_off in -4i64..10,
    ) {
        // `select_le` must pick the SAME bit as the naive full-scan
        // reservoir AND consume the SAME number of RNG draws (only
        // candidates are drawn for, as in the scan) — the property that
        // keeps whole trajectories bit-identical. Both selection shapes,
        // both kernels, at random-walk states and at greedy local minima,
        // against a bound near the minimum and PositiveMin's posmin.
        for (shape, q) in selection_models(n, seed) {
            for descend in [false, true] {
                let (mut csr, mut dense) =
                    selection_states(&q, seed ^ 0x5E1E_C700, steps, descend);
                let (_, min_d) = csr.min_delta();
                let posmin = csr.positive_min_delta();
                for bound in [min_d.saturating_add(bound_off), posmin] {
                    let label = format!("{shape} n={n} descend={descend}");
                    check_select_le(&mut csr, bound, seed, &format!("csr {label}"))?;
                    check_select_le(&mut dense, bound, seed, &format!("dense {label}"))?;
                }
            }
        }
    }

    #[test]
    fn window_argmin_matches_the_element_wise_window_scan(
        n in 8usize..150,
        seed in any::<u64>(),
        steps in 0usize..50,
        pos_raw in 0usize..1000,
        width_raw in 0usize..1000,
    ) {
        // CyclicMin's cyclic-window argmin, answered from segment
        // aggregates with whole-segment skipping, must reproduce the
        // element-wise traversal exactly — both the filtered and the
        // unrestricted argmin, including wrap-around windows.
        use dabs::rng::Rng64;
        let q = density_model(n, 0.4, seed, KernelChoice::Csr);
        let mut rng = dabs::rng::Xorshift64Star::new(seed ^ 0xC1C);
        let mut st = IncrementalState::from_solution(&q, Solution::random(n, &mut rng));
        for _ in 0..steps {
            let bit = rng.next_index(n);
            st.flip(bit);
        }
        let pos = pos_raw % n;
        let width = (width_raw % n) + 1;
        let blocked = |k: usize| !k.is_multiple_of(7);
        let (arg, arg_any) = st.window_argmin(pos, width, blocked);
        let mut n_arg = usize::MAX;
        let mut n_min = i64::MAX;
        let mut n_arg_any = usize::MAX;
        let mut n_min_any = i64::MAX;
        for off in 0..width {
            let k = (pos + off) % n;
            let d = st.delta(k);
            if d < n_min_any {
                n_min_any = d;
                n_arg_any = k;
            }
            if d < n_min && blocked(k) {
                n_min = d;
                n_arg = k;
            }
        }
        prop_assert_eq!(arg, n_arg);
        prop_assert_eq!(arg_any, n_arg_any);
    }

    #[test]
    fn auto_kernel_selection_follows_the_density_policy(
        n in 8usize..40,
        seed in any::<u64>(),
    ) {
        for &density in &PARITY_DENSITIES {
            let q = density_model(n, density, seed, KernelChoice::Auto);
            let expect = if q.density() >= dabs::model::DENSE_DENSITY_THRESHOLD {
                KernelKind::Dense
            } else {
                KernelKind::Csr
            };
            prop_assert_eq!(q.kernel_kind(), expect);
            // dense storage exists exactly when the dense backend is active
            prop_assert_eq!(q.dense_strips().is_some(), expect == KernelKind::Dense);
        }
    }

    #[test]
    fn lower_bound_is_sound(q in arb_qubo(16), seed in any::<u64>()) {
        let lb = q.lower_bound();
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        for _ in 0..16 {
            let x = Solution::random(q.n(), &mut rng);
            prop_assert!(q.energy(&x) >= lb);
        }
    }
}
