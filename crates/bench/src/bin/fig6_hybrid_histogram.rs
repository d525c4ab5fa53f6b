//! Fig. 6: histogram of hybrid-solver results on the K2000-class MaxCut at
//! three time limits.
//!
//! The paper runs the D-Wave Hybrid solver 100× at T = 50/100/200 s and
//! shows the best-energy distribution sharpening toward the optimum as the
//! budget grows. Our stand-in portfolio is run at `--t-ms`, `2×`, `4×`.
//! Instance and seed handling come from the shared
//! [`dabs_bench::scenarios`] plan.
//!
//! Flags: `--full`, `--runs N` (default 20; paper: 100), `--seed S`,
//! `--t-ms T` (base deadline), `--bin W`, `--n N`.

use dabs_baselines::hybrid::{HybridConfig, HybridSolver};
use dabs_bench::harness::establish_reference;
use dabs_bench::instances::maxcut_set;
use dabs_bench::{Args, Histogram, RunPlan};
use dabs_search::SearchParams;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let values = [&RunPlan::VALUES[..], &["t-ms", "n", "bin"]].concat();
    let (plan, t_base_ms, n_override, bin_width) =
        Args::read_env(&values, &RunPlan::FLAGS, |args| {
            let plan = RunPlan::from_args_with_runs(args, 20)?;
            let t_base_ms = args.get("t-ms", if plan.full { 5_000 } else { 250 })?;
            let n = args.get("n", 0usize)?;
            Ok((plan, t_base_ms, n, args.get("bin", 1.0f64)?))
        });
    let t_base = Duration::from_millis(t_base_ms);

    let bench = if n_override > 0 {
        dabs_bench::instances::MaxCutBench {
            label: "K2000(custom n)",
            problem: dabs_problems::gset::k2000_like(n_override, plan.seed),
        }
    } else {
        maxcut_set(plan.full, plan.seed).remove(0)
    };
    println!(
        "== Fig. 6: hybrid-solver energy histogram, {} (n = {}) ==",
        bench.label,
        bench.problem.n()
    );
    println!(
        "runs = {} per deadline, deadlines = T/2T/4T with T = {t_base:?}\n",
        plan.runs
    );

    let model = Arc::new(bench.problem.to_qubo());
    let cfg = plan.dabs(SearchParams::maxcut());
    let reference = establish_reference(&model, &cfg, t_base * 8);
    println!("potentially optimal energy: {reference}\n");

    for factor in [1u32, 2, 4] {
        let deadline = t_base * factor;
        let mut hist = Histogram::new(0.0, bin_width);
        let mut hits = 0;
        for k in 0..plan.runs as u64 {
            let r = HybridSolver::new(HybridConfig {
                time_limit: deadline,
                seed: plan.seed * 3000 + factor as u64 * 100 + k,
                ..HybridConfig::default()
            })
            .solve(&model);
            // bin by distance from the optimum (0 = found it)
            hist.add((r.energy - reference) as f64);
            if r.energy == reference {
                hits += 1;
            }
        }
        println!(
            "{}",
            hist.render(&format!(
                "T = {deadline:?}: energy − optimum ({hits}/{} runs found the optimum)",
                plan.runs
            ))
        );
    }
    println!("paper shape: optimum found 4/100 at T=50s, 16/100 at T=100s, 59/100 at T=200s —");
    println!("the distribution mass migrates into the optimal bin as T doubles.");
}
