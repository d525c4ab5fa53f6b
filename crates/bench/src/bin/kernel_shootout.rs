//! Kernel shootout: flips/s for the CSR and dense energy backends across an
//! instance-density sweep.
//!
//! The one-flip delta update is the hottest loop in the repo — every search
//! strategy, every baseline, and every server job funnels through it. This
//! bin is a thin wrapper over [`dabs_bench::scenarios::kernel`], the same
//! sweep the suite's `kernel_sweep` entry records into `BENCH_*.json`; it
//! prints raw flip throughput per backend plus what the `auto` policy would
//! have picked, so a regression in either backend (or a mistuned density
//! threshold) is visible in every CI log.
//!
//! ```text
//! cargo run --release -p dabs-bench --bin kernel_shootout
//! cargo run --release -p dabs-bench --bin kernel_shootout -- \
//!     --n 2048 --flips 500000 --seed 7
//! cargo run --release -p dabs-bench --bin kernel_shootout -- --smoke
//! ```
//!
//! Methodology: one model per density; a pre-generated random flip sequence
//! (so the RNG is off the measured path) is applied to a resident
//! `IncrementalState` per backend, timed after an untimed warm-up pass.
//! Identical flip sequences mean both backends do exactly the same logical
//! work; only the weight-layout changes.

use dabs_bench::scenarios::kernel::{
    sweep, violations, SMOKE_MIN_SPEEDUP, SPEEDUP_CONTRACT_MIN_DENSITY,
};
use dabs_bench::{Args, Table};
use dabs_model::DENSE_DENSITY_THRESHOLD;

fn human(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2} Mflip/s", rate / 1e6)
    } else {
        format!("{:.0} kflip/s", rate / 1e3)
    }
}

fn main() {
    let (smoke, n, flips, seed) = Args::read_env(&["n", "flips", "seed"], &["smoke"], |args| {
        let smoke = args.flag("smoke");
        let n = args.get("n", 1024usize)?;
        let flips = args.get("flips", if smoke { 60_000usize } else { 400_000 })?;
        Ok((smoke, n, flips, args.get("seed", 1u64)?))
    });
    let densities: Vec<f64> = if smoke {
        vec![0.05, 0.5, 0.95]
    } else {
        vec![0.05, 0.1, 0.25, 0.5, 0.75, 0.95]
    };

    println!(
        "kernel shootout — n = {n}, {flips} timed flips per backend, seed {seed} \
         (auto threshold: density ≥ {DENSE_DENSITY_THRESHOLD}; \
          smoke contract: dense ≥ {SMOKE_MIN_SPEEDUP}× csr at density ≥ {SPEEDUP_CONTRACT_MIN_DENSITY})"
    );

    let points = sweep(n, flips, seed, &densities);

    let mut table = Table::new(vec!["density", "nnz", "auto", "csr", "dense", "speedup"]);
    for p in &points {
        table.row(vec![
            format!("{:.2}", p.density),
            format!("{}", p.nnz),
            p.auto.to_string(),
            human(p.csr_rate),
            human(p.dense_rate),
            format!("{:.2}×", p.speedup()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "speedup = dense / csr; `auto` is the backend the density policy selects at model build"
    );
    // Violations are always reported; only smoke mode (the CI gate) turns
    // them into a failing exit, since full sweeps run on arbitrary hardware.
    let bad = violations(&points);
    for v in &bad {
        eprintln!("SPEEDUP CONTRACT VIOLATED — {v}");
    }
    if smoke && !bad.is_empty() {
        std::process::exit(1);
    }
}
