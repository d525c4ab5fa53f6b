//! Ablation: adaptive (95 % replay / 5 % explore) selection vs uniform
//! selection of algorithms and operations.
//!
//! Setting `explore_prob = 1.0` disables the replay path entirely — every
//! packet draws its algorithm/operation uniformly — isolating the value of
//! the paper's pool-driven adaptivity. Thin wrapper over
//! [`dabs_bench::scenarios::ablation`]; the suite's `ablation_adaptive`
//! entry runs the same arms deterministically.
//!
//! Flags: `--runs N`, `--seed S`, `--budget-ms B`, `--devices D`,
//! `--blocks K`, `--full`.

use dabs_bench::scenarios::ablation::{adaptive_arms, run_table, ArmColumns};
use dabs_bench::{Args, RunPlan};

fn main() {
    let plan = Args::read_env(&RunPlan::VALUES, &RunPlan::FLAGS, RunPlan::from_args);
    println!("== Ablation: adaptive vs uniform strategy selection ==");
    println!(
        "runs = {}, per-family canonical budgets (see scenarios::family_budget_ms)\n",
        plan.runs
    );
    println!(
        "{}",
        run_table(&adaptive_arms(), &plan, ArmColumns::Full).render()
    );
}
