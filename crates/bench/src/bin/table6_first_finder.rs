//! Table VI: frequency of the algorithm/operation that *first found* the
//! potentially optimal solution.
//!
//! For each benchmark instance, repeats DABS runs and tallies which
//! (algorithm, operation) pair produced the final best solution of each
//! run — the paper's evidence that the *finisher* distribution differs from
//! the *executed* distribution of Table V. The measurement loop is the
//! shared [`dabs_bench::scenarios::frequency`].
//!
//! Flags: `--full`, `--runs N`, `--seed S`, `--budget-ms B`, `--devices D`,
//! `--blocks B`.

use dabs_bench::scenarios::{frequency, problem_suite};
use dabs_bench::{Args, RunPlan, Table};
use dabs_core::GeneticOp;
use dabs_search::MainAlgorithm;

fn main() {
    let plan = Args::read_env(&RunPlan::VALUES, &RunPlan::FLAGS, RunPlan::from_args);

    println!("== Table VI: first-finder frequency ==");
    println!(
        "runs = {}, per-family canonical budgets (see scenarios::family_budget_ms)\n",
        plan.runs
    );

    let mut table = Table::new(frequency::table_headers());

    for inst in problem_suite(plan.full, plan.seed) {
        let (algo_counts, op_counts, counted) = frequency::first_finder(&inst, &plan);
        let denom = counted.max(1) as f64;
        let algo_pcts: Vec<f64> = MainAlgorithm::ALL
            .iter()
            .map(|a| 100.0 * algo_counts[a.index()] as f64 / denom)
            .collect();
        let op_pcts: Vec<f64> = GeneticOp::DABS
            .iter()
            .map(|o| 100.0 * op_counts[o.index()] as f64 / denom)
            .collect();

        let mut row = vec![inst.label.clone()];
        row.extend(frequency::percent_row(&algo_pcts));
        row.extend(frequency::percent_row(&op_pcts));
        table.row(row);
    }

    println!("{}", table.render());
    println!("('*' marks the row maximum — the paper's boldface)");
    println!("\npaper highlights: PositiveMin first-finds K2000 (93.1%) though it is");
    println!("executed only 25.1% of the time; Best first-finds MaxCut optima though");
    println!("rarely executed — the Table V vs VI divergence is the adaptivity story.");
}
