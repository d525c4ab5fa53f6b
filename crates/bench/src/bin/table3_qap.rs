//! Table III: QAP (tai20a / tho30 / nug30-class instances).
//!
//! Reports the QAP cost and QUBO energy of the best solution, the paper's
//! `E = C − n·p` identity, DABS/ABS TTS + probability, and branch-and-bound
//! / hybrid gaps. The DABS/ABS protocol is the shared
//! [`dabs_bench::scenarios::measure_dabs_abs`]; the feasibility decode and
//! baseline solvers are this table's own extras.
//!
//! Flags: `--full`, `--runs N`, `--seed S`, `--budget-ms B` (default = the
//! canonical QAP family budget), `--devices D`, `--blocks B`.

use dabs_baselines::bnb::{BnbConfig, BranchAndBound};
use dabs_baselines::hybrid::{HybridConfig, HybridSolver};
use dabs_bench::harness::{fmt_gap, fmt_tts};
use dabs_bench::instances::qap_set;
use dabs_bench::scenarios::{measure_dabs_abs, warn_unconverged};
use dabs_bench::suite::Family;
use dabs_bench::{Args, RunPlan, Table};
use dabs_core::{DabsSolver, Termination};
use dabs_search::SearchParams;
use std::sync::Arc;

fn main() {
    let plan = Args::read_env(&RunPlan::VALUES, &RunPlan::FLAGS, RunPlan::from_args);
    let budget = plan.budget(Family::Qap);

    println!(
        "== Table III: QAP ({}) ==",
        if plan.full { "paper scale" } else { "CI scale" }
    );
    println!("runs = {}, per-run budget = {budget:?}\n", plan.runs);

    let mut table = Table::new(vec![
        "QAP",
        "n",
        "penalty",
        "QAP cost",
        "QUBO opt",
        "DABS E",
        "DABS TTS",
        "ABS E",
        "ABS TTS",
        "ABS Prob",
        "BnB gap",
        "Hybrid gap",
        "feasible",
    ]);

    for bench in qap_set(plan.full, plan.seed) {
        let n = bench.instance.n() as i64;
        let model = Arc::new(bench.instance.to_qubo(bench.penalty));

        // paper parameters for QAP: s = 0.1, b = 1
        let pair = measure_dabs_abs(&model, SearchParams::qap_qasp(), &plan, Family::Qap);
        let reference = pair.reference;

        // decode the reference solution to verify feasibility & the
        // E = C − n·p identity
        let solver = DabsSolver::new(pair.dabs_cfg.clone()).unwrap();
        let ref_run = solver.run(&model, Termination::target(reference).with_time(budget * 3));
        let decoded = bench.instance.decode(&ref_run.best);
        let (cost_str, feasible) = match &decoded {
            Some(g) => {
                let cost = bench.instance.cost(g);
                assert_eq!(
                    ref_run.energy,
                    cost - n * bench.penalty,
                    "paper identity E = C − n·p violated"
                );
                (cost.to_string(), "yes")
            }
            None => ("—".to_string(), "NO"),
        };

        let bnb = BranchAndBound::new(BnbConfig {
            time_limit: budget,
            heuristic_restarts: 32,
            seed: plan.seed,
        })
        .solve(&model);
        let hybrid = HybridSolver::new(HybridConfig {
            time_limit: budget,
            seed: plan.seed,
            ..HybridConfig::default()
        })
        .solve(&model);

        warn_unconverged(bench.label, reference, pair.observed_best());
        table.row(vec![
            bench.label.to_string(),
            n.to_string(),
            bench.penalty.to_string(),
            cost_str,
            reference.to_string(),
            pair.dabs.best_energy().to_string(),
            fmt_tts(pair.dabs.mean_tts()),
            pair.abs.best_energy().to_string(),
            fmt_tts(pair.abs.mean_tts()),
            format!("{:.1}%", 100.0 * pair.abs.success_rate()),
            fmt_gap(bnb.energy, reference),
            fmt_gap(hybrid.energy, reference),
            feasible.to_string(),
        ]);
    }

    println!("{}", table.render());
    println!("paper (published QAPLIB instances):");
    println!("  tai20a: opt 703482 (QUBO −3296518, p=200000), DABS TTS 81.6s, ABS 93.5s @13.4%, Gurobi gap 0.151%, Hybrid gap 1.86%");
    println!("  tho30:  opt 149936 (QUBO −750064, p=30000),  DABS TTS 9.60s, ABS 38.6s @67.5%, Gurobi gap 0.137%, Hybrid gap 1.59%");
    println!("  nug30:  opt 6124  (QUBO −23876, p=1000),    DABS TTS 44.2s, ABS 51.7s @14.8%, Gurobi gap 0.235%, Hybrid gap 2.20%");
}
