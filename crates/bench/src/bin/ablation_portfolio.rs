//! Ablation: full five-algorithm portfolio vs each algorithm alone.
//!
//! The No-Free-Lunch motivation of §I-B in one table: no single algorithm
//! wins everywhere, while the adaptive portfolio tracks the per-problem
//! winner. Thin wrapper over [`dabs_bench::scenarios::ablation`]; the
//! suite's `ablation_portfolio` entry runs the same arms deterministically.
//!
//! Flags: `--runs N` (default 3), `--seed S`, `--budget-ms B`,
//! `--devices D`, `--blocks K`, `--full`.

use dabs_bench::scenarios::ablation::{portfolio_arms, run_table, ArmColumns};
use dabs_bench::{Args, RunPlan};

fn main() {
    let plan = Args::read_env(&RunPlan::VALUES, &RunPlan::FLAGS, |args| {
        RunPlan::from_args_with_runs(args, 3)
    });
    println!("== Ablation: algorithm portfolio vs single algorithms ==");
    println!("cells: success probability reaching the first arm's reference energy");
    println!(
        "runs = {}, per-family canonical budgets (see scenarios::family_budget_ms)\n",
        plan.runs
    );
    println!(
        "{}",
        run_table(&portfolio_arms(), &plan, ArmColumns::ProbOnly).render()
    );
}
