//! Table II: MaxCut on K2000 / G22 / G39-class instances.
//!
//! Rows: potentially-optimal energy, DABS TTS, ABS TTS + success
//! probability, branch-and-bound ("Gurobi") gap, hybrid-solver result, and
//! simulated bifurcation (CIM/dSB-class) gap. The DABS/ABS protocol is the
//! shared [`dabs_bench::scenarios::measure_dabs_abs`]; the baseline solvers
//! are this table's own extras.
//!
//! Flags: `--full` (paper-sized n = 2000), `--runs N` (default 5),
//! `--seed S`, `--budget-ms B` (per measured run; default = the canonical
//! MaxCut family budget), `--devices D`, `--blocks B`.

use dabs_baselines::bnb::{BnbConfig, BranchAndBound};
use dabs_baselines::hybrid::{HybridConfig, HybridSolver};
use dabs_baselines::sb::{SbConfig, SimulatedBifurcation};
use dabs_bench::harness::{fmt_gap, fmt_tts};
use dabs_bench::instances::maxcut_set;
use dabs_bench::scenarios::{measure_dabs_abs, warn_unconverged};
use dabs_bench::suite::Family;
use dabs_bench::{Args, RunPlan, Table};
use dabs_search::SearchParams;
use std::sync::Arc;

fn main() {
    let plan = Args::read_env(&RunPlan::VALUES, &RunPlan::FLAGS, RunPlan::from_args);
    let budget = plan.budget(Family::MaxCut);

    println!(
        "== Table II: MaxCut ({}) ==",
        if plan.full { "paper scale" } else { "CI scale" }
    );
    println!(
        "runs = {}, per-run budget = {budget:?}, devices = {}×{} blocks\n",
        plan.runs, plan.devices, plan.blocks
    );

    let mut table = Table::new(vec![
        "MaxCut",
        "PotOpt E",
        "Cut",
        "DABS E",
        "DABS TTS",
        "ABS E",
        "ABS TTS",
        "ABS Prob",
        "BnB(Gurobi) gap",
        "Hybrid gap",
        "dSB gap",
    ]);

    for bench in maxcut_set(plan.full, plan.seed) {
        let model = Arc::new(bench.problem.to_qubo());

        // paper parameters for MaxCut: s = 0.1, b = 10
        let pair = measure_dabs_abs(&model, SearchParams::maxcut(), &plan, Family::MaxCut);
        let reference = pair.reference;

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

        let (ising, c) = model.to_ising();
        let sb = SimulatedBifurcation::new(SbConfig {
            steps: if plan.full { 20_000 } else { 5_000 },
            seed: plan.seed,
            ..SbConfig::default()
        })
        .solve(&ising);
        // H = 4E − C  ⇒  E = (H + C)/4
        let sb_energy = (sb.energy + c) / 4;

        warn_unconverged(bench.label, reference, pair.observed_best());
        table.row(vec![
            bench.label.to_string(),
            reference.to_string(),
            (-reference).to_string(),
            pair.dabs.best_energy().to_string(),
            fmt_tts(pair.dabs.mean_tts()),
            pair.abs.best_energy().to_string(),
            fmt_tts(pair.abs.mean_tts()),
            format!("{:.1}%", 100.0 * pair.abs.success_rate()),
            fmt_gap(bnb.energy, reference),
            fmt_gap(hybrid.energy, reference),
            fmt_gap(sb_energy, reference),
        ]);
    }

    println!("{}", table.render());
    println!("paper (for shape comparison, published instances):");
    println!("  K2000: PotOpt −33337, DABS TTS 0.694s, ABS 9.19s @99.2%, Gurobi gap 0.287%, Hybrid TTS 100–200s, CIM gap 0.438%");
    println!("  G22:   PotOpt −13359, DABS TTS 1.58s,  ABS 19.7s @69.5%, Gurobi gap 1.66%,  Hybrid TTS 10–20s,  CIM gap 0.344%");
    println!("  G39:   PotOpt −2408,  DABS TTS 7.56s,  ABS 15.1s @78.6%, Gurobi gap 5.48%,  Hybrid TTS 50–100s, CIM gap 1.95%");
}
