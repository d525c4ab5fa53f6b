//! Ablation: island ring (multiple pools + Xrossover) vs a single pool.
//!
//! Compares 4 devices × 2 blocks (four islands) against 1 device × 8 blocks
//! (one island, same total block workers) — the paper's §IV-B diversity
//! argument in isolation. Thin wrapper over
//! [`dabs_bench::scenarios::ablation`]; the suite's `ablation_islands`
//! entry runs the same arms sequentially, where the block shape drops out
//! (4 pools vs 1 pool, one unit each).
//!
//! Flags: `--runs N`, `--seed S`, `--budget-ms B`, `--full`.

use dabs_bench::scenarios::ablation::{islands_arms, run_table, ArmColumns};
use dabs_bench::{Args, RunPlan};

fn main() {
    let plan = Args::read_env(&RunPlan::VALUES, &RunPlan::FLAGS, RunPlan::from_args);
    println!("== Ablation: 4 islands × 2 blocks vs 1 island × 8 blocks ==");
    println!(
        "runs = {}, per-family canonical budgets (see scenarios::family_budget_ms)\n",
        plan.runs
    );
    println!(
        "{}",
        run_table(&islands_arms(), &plan, ArmColumns::Full).render()
    );
}
