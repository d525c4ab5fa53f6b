//! Criterion microbenchmarks for the flip hot loop: `apply_flip` (both
//! kernel backends, with segment-aggregate maintenance) and the selection
//! primitives the search strategies run between flips — at the three
//! parity densities, so a change to the segment layer shows its cost and
//! payoff in one table — plus PositiveMin's two selection calls at greedy
//! local minima of a G22-shaped graph, the tie-heavy states where most
//! segments hold a zero gain.
//!
//! Run with `cargo bench -p dabs-model --bench flip_loop`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dabs_model::{IncrementalState, KernelChoice, QuboBuilder, QuboModel, SEG_WIDTH};
use dabs_rng::{Rng64, Xorshift64Star};

const N: usize = 512;
const DENSITIES: [f64; 3] = [0.05, 0.5, 0.95];

fn density_model(density: f64) -> QuboModel {
    let mut rng = Xorshift64Star::new(42);
    let mut b = QuboBuilder::new(N);
    b.kernel(KernelChoice::Dense); // build both storages
    for i in 0..N {
        b.add_linear(i, rng.next_range_i64(-99, 99));
        for j in (i + 1)..N {
            if rng.next_bool(density) {
                b.add_quadratic(i, j, rng.next_range_i64(-99, 99));
            }
        }
    }
    b.build().unwrap()
}

fn key(density: f64) -> String {
    format!("d{:02}", (density * 100.0).round() as u32)
}

/// One incremental flip (Eq. 4–5 update + aggregate maintenance), kept on a
/// 2-cycle so the state never drifts: flip i, flip it back.
fn bench_apply_flip(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_flip");
    for density in DENSITIES {
        let q = density_model(density);
        let mut rng = Xorshift64Star::new(7);
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("csr", key(density)), &N, |b, _| {
                b.iter(|| {
                    st.flip(i);
                    st.flip(i);
                    i = (i + 97) % N;
                    black_box(st.energy())
                })
            });
        }
        {
            let mut st = IncrementalState::new_dense(&q);
            let mut i = rng.next_index(N);
            group.bench_with_input(BenchmarkId::new("dense", key(density)), &N, |b, _| {
                b.iter(|| {
                    st.flip(i);
                    st.flip(i);
                    i = (i + 97) % N;
                    black_box(st.energy())
                })
            });
        }
    }
    group.finish();
}

/// The selection primitives, each measured right after a flip so the
/// dirty-segment refresh cost is on the clock (that is the real per-flip
/// shape in every strategy).
fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection");
    for density in DENSITIES {
        let q = density_model(density);
        let k = key(density);
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("min_delta", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    black_box(st.min_delta())
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("min_max_argmin", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    black_box(st.min_max_argmin())
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("positive_min_delta", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    black_box(st.positive_min_delta())
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut rng = Xorshift64Star::new(9);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("select_le_min+4", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    let (_, min_d) = st.min_delta();
                    black_box(st.select_le(min_d.saturating_add(4), &mut rng, |_| true))
                })
            });
        }
        {
            let mut st = IncrementalState::new(&q);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("window_argmin_n8", &k), &N, |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    let pos = (i * 13) % N;
                    i += 31;
                    black_box(st.window_argmin(pos, N / 8, |_| true))
                })
            });
        }
    }
    group.finish();
}

/// Max-cut QUBO of a G22-shaped graph: `GSET_N` nodes, `GSET_N` distinct
/// unit edges (average degree 2), built here so the bench needs no problem
/// generator crate.
const GSET_N: usize = 200;

fn gset_shaped_model() -> QuboModel {
    let mut rng = Xorshift64Star::new(22);
    let mut edges = std::collections::HashSet::new();
    while edges.len() < GSET_N {
        let (i, j) = (rng.next_index(GSET_N), rng.next_index(GSET_N));
        if i != j {
            edges.insert((i.min(j), i.max(j)));
        }
    }
    let mut edges: Vec<(usize, usize)> = edges.into_iter().collect();
    edges.sort_unstable();
    let mut b = QuboBuilder::new(GSET_N);
    for (i, j) in edges {
        b.add_maxcut_edge(i, j, 1);
    }
    b.build().unwrap()
}

/// `count` greedy local minima (steepest descent from random starts until
/// no gain is negative), with their aggregates refreshed.
fn local_minima(q: &QuboModel, count: usize) -> Vec<IncrementalState<'_>> {
    let mut rng = Xorshift64Star::new(39);
    (0..count)
        .map(|_| {
            let start = dabs_model::Solution::random(q.n(), &mut rng);
            let mut st = IncrementalState::from_solution(q, start);
            loop {
                let (k, d) = st.min_delta();
                if d >= 0 {
                    break;
                }
                st.flip(k);
            }
            st
        })
        .collect()
}

/// PositiveMin's selection calls at G-set local minima: one iteration runs
/// the call once on each of the 64 states, so divide by 64 for the cost
/// per call (the states stay put, so no refresh is on the clock).
fn bench_gset_local_minima(c: &mut Criterion) {
    let q = gset_shaped_model();
    let mut states = local_minima(&q, 64);
    let mut group = c.benchmark_group("gset_local_min_x64");
    group.bench_function("positive_min_delta", |b| {
        b.iter(|| {
            states
                .iter_mut()
                .map(|st| st.positive_min_delta())
                .fold(0i64, |acc, p| acc ^ black_box(p))
        })
    });
    let posmins: Vec<i64> = states
        .iter_mut()
        .map(|st| st.positive_min_delta())
        .collect();
    let candidates: usize = states
        .iter()
        .zip(&posmins)
        .map(|(st, &p)| st.deltas().iter().filter(|&&d| d <= p).count())
        .sum();
    let held: usize = states
        .iter()
        .map(|st| {
            let segs = st.deltas().chunks(SEG_WIDTH);
            segs.filter(|c| c.iter().any(|&d| d <= 0)).count()
        })
        .sum();
    println!(
        "gset_local_min_x64: {:.1} candidates per select_le call; {held} of {} segments hold a gain <= 0",
        candidates as f64 / 64.0,
        64 * GSET_N.div_ceil(SEG_WIDTH)
    );
    let mut rng = Xorshift64Star::new(9);
    group.bench_function("select_le_posmin", |b| {
        b.iter(|| {
            states
                .iter_mut()
                .zip(&posmins)
                .map(|(st, &posmin)| st.select_le(posmin, &mut rng, |_| true))
                .fold(0usize, |acc, k| acc ^ black_box(k).unwrap_or(0))
        })
    });
    // The same walk with every candidate rejected, so no RNG value is
    // drawn: the difference to `select_le_posmin` is the draws' cost.
    group.bench_function("select_le_posmin_no_draws", |b| {
        b.iter(|| {
            states
                .iter_mut()
                .zip(&posmins)
                .map(|(st, &posmin)| st.select_le(posmin, &mut rng, |k| black_box(k) == usize::MAX))
                .fold(0usize, |acc, k| acc ^ black_box(k).unwrap_or(0))
        })
    });
    group.finish();
}

/// The full-scan selection the segment layer replaced, for an on-demand
/// before/after on the same machine.
fn bench_naive_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_scan");
    for density in DENSITIES {
        let q = density_model(density);
        let mut st = IncrementalState::new(&q);
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("full_min_scan", key(density)),
            &N,
            |b, _| {
                b.iter(|| {
                    st.flip(i % N);
                    i += 31;
                    let deltas = st.deltas();
                    let mut best = (0usize, deltas[0]);
                    for (k, &d) in deltas.iter().enumerate().skip(1) {
                        if d < best.1 {
                            best = (k, d);
                        }
                    }
                    black_box(best)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_apply_flip,
    bench_selection,
    bench_gset_local_minima,
    bench_naive_scan
);
criterion_main!(benches);
