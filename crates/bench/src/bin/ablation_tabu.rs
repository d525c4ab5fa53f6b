//! Ablation: tabu tenure 8 (the paper's fixed setting) vs tenure 0.
//!
//! Thin wrapper over [`dabs_bench::scenarios::ablation`]; the suite's
//! `ablation_tabu` entry runs the same arms deterministically.
//!
//! Flags: `--runs N`, `--seed S`, `--budget-ms B`, `--devices D`,
//! `--blocks K`, `--full`.

use dabs_bench::scenarios::ablation::{run_table, tabu_arms, ArmColumns};
use dabs_bench::{Args, RunPlan};

fn main() {
    let plan = Args::read_env(&RunPlan::VALUES, &RunPlan::FLAGS, RunPlan::from_args);
    println!("== Ablation: tabu tenure 8 vs 0 ==");
    println!(
        "runs = {}, per-family canonical budgets (see scenarios::family_budget_ms)\n",
        plan.runs
    );
    println!(
        "{}",
        run_table(&tabu_arms(), &plan, ArmColumns::Full).render()
    );
}
