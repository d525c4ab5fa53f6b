//! Fig. 5: histogram of DABS Time-To-Solution on the K2000-class MaxCut.
//!
//! The paper runs DABS 1 000 times and bins TTS at 0.1 s; all runs finish
//! under 1.7 s. Default CI scale uses fewer runs and auto-scaled bins.
//! Setup and measurement protocol come from the shared
//! [`dabs_bench::scenarios`] plan (canonical MaxCut family budget).
//!
//! Flags: `--full`, `--runs N` (default 25; paper: 1000), `--seed S`,
//! `--budget-ms B`, `--bin-ms W`, `--devices D`, `--blocks B`, `--n N`.

use dabs_bench::harness::{dabs_run_outcome, establish_reference};
use dabs_bench::instances::maxcut_set;
use dabs_bench::suite::Family;
use dabs_bench::{repeat_solver, Args, Histogram, RunPlan};
use dabs_problems::gset;
use dabs_search::SearchParams;
use std::sync::Arc;

fn main() {
    let values = [&RunPlan::VALUES[..], &["bin-ms", "n"]].concat();
    let (plan, bin_ms, n_override) = Args::read_env(&values, &RunPlan::FLAGS, |args| {
        let plan = RunPlan::from_args_with_runs(args, 25)?;
        let bin_ms = args.get("bin-ms", if plan.full { 100u64 } else { 50 })?;
        Ok((plan, bin_ms, args.get("n", 0usize)?))
    });
    let budget = plan.budget(Family::MaxCut);
    let bin = bin_ms as f64 / 1000.0;

    let bench = if n_override > 0 {
        dabs_bench::instances::MaxCutBench {
            label: "K2000(custom n)",
            problem: gset::k2000_like(n_override, plan.seed),
        }
    } else {
        maxcut_set(plan.full, plan.seed).remove(0) // the K2000-class instance
    };
    println!(
        "== Fig. 5: TTS histogram, {} (n = {}) ==",
        bench.label,
        bench.problem.n()
    );
    println!("runs = {}, bin width = {bin}s\n", plan.runs);

    let model = Arc::new(bench.problem.to_qubo());
    let cfg = plan.dabs(SearchParams::maxcut());
    let reference = establish_reference(&model, &cfg, budget * 3);
    println!(
        "potentially optimal energy: {reference} (cut {})",
        -reference
    );

    let stats = repeat_solver(plan.runs, plan.arm_seed(0), |s| {
        dabs_run_outcome(&model, &cfg, s, reference, budget)
    });

    let mut hist = Histogram::new(0.0, bin);
    for t in stats.tts_seconds() {
        hist.add(t);
    }
    println!(
        "{}",
        hist.render(&format!(
            "TTS to reach {reference} ({} / {} runs succeeded)",
            stats.successes(),
            stats.runs()
        ))
    );
    println!("paper shape: all 1000 runs < 1.7s, mode at 0.4–0.7s, right-skewed tail.");
}
