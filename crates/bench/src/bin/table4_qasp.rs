//! Table IV: QASP at resolutions 1 / 16 / 256.
//!
//! Rows: potentially-optimal energy, DABS/ABS TTS + probability,
//! branch-and-bound ("Gurobi") gap, and the analog annealer simulator
//! ("D-Wave Advantage") gap — which stays above zero at every resolution
//! while DABS reaches the potentially-optimal value (the paper's headline).
//! The DABS/ABS protocol is the shared
//! [`dabs_bench::scenarios::measure_dabs_abs`].
//!
//! Flags: `--full`, `--runs N`, `--seed S`, `--budget-ms B` (default = the
//! canonical QASP family budget), `--devices D`, `--blocks B`, `--reads R`
//! (annealer reads).

use dabs_baselines::annealer::{AnalogAnnealer, AnnealerConfig};
use dabs_baselines::bnb::{BnbConfig, BranchAndBound};
use dabs_bench::harness::{fmt_gap, fmt_tts};
use dabs_bench::instances::qasp_set;
use dabs_bench::scenarios::{measure_dabs_abs, warn_unconverged};
use dabs_bench::suite::Family;
use dabs_bench::{Args, RunPlan, Table};
use dabs_search::SearchParams;
use std::sync::Arc;

fn main() {
    let values = [&RunPlan::VALUES[..], &["reads"]].concat();
    let (plan, reads) = Args::read_env(&values, &RunPlan::FLAGS, |args| {
        let plan = RunPlan::from_args(args)?;
        let reads = args.get("reads", if plan.full { 1000u32 } else { 200 })?;
        Ok((plan, reads))
    });
    let budget = plan.budget(Family::Qasp);

    println!(
        "== Table IV: QASP ({}) ==",
        if plan.full { "paper scale" } else { "CI scale" }
    );
    println!(
        "runs = {}, per-run budget = {budget:?}, annealer reads = {reads}\n",
        plan.runs
    );

    let mut table = Table::new(vec![
        "QASP",
        "resolution",
        "PotOpt E",
        "DABS E",
        "DABS TTS",
        "ABS E",
        "ABS TTS",
        "ABS Prob",
        "BnB gap",
        "Annealer gap",
    ]);

    for bench in qasp_set(plan.full, plan.seed) {
        let model = Arc::new(bench.instance.qubo().clone());

        // paper parameters for QASP: s = 0.1, b = 1
        let pair = measure_dabs_abs(&model, SearchParams::qap_qasp(), &plan, Family::Qasp);
        let reference = pair.reference;

        let bnb = BranchAndBound::new(BnbConfig {
            time_limit: budget,
            heuristic_restarts: 32,
            seed: plan.seed,
        })
        .solve(&model);

        // annealer samples the Ising; convert its Hamiltonian back to QUBO
        // energy through the instance offset: E = H − offset
        let annealer = AnalogAnnealer::new(AnnealerConfig {
            num_reads: reads,
            sweeps_per_read: 10,
            noise_sigma: 0.02,
            seed: plan.seed,
            ..AnnealerConfig::default()
        })
        .sample(bench.instance.ising());
        let annealer_energy = annealer.energy - bench.instance.offset();

        warn_unconverged(&bench.label, reference, pair.observed_best());
        table.row(vec![
            bench.label.clone(),
            bench.instance.resolution.to_string(),
            reference.to_string(),
            pair.dabs.best_energy().to_string(),
            fmt_tts(pair.dabs.mean_tts()),
            pair.abs.best_energy().to_string(),
            fmt_tts(pair.abs.mean_tts()),
            format!("{:.1}%", 100.0 * pair.abs.success_rate()),
            fmt_gap(bnb.energy, reference),
            fmt_gap(annealer_energy, reference),
        ]);
    }

    println!("{}", table.render());
    println!("paper (real D-Wave Advantage 4.1 working graph):");
    println!("  QASP1:   PotOpt −20902,    DABS TTS 4.34s, ABS 6.92s @93.2%, Gurobi gap 1.08%,    D-Wave gap 0.105%");
    println!("  QASP16:  PotOpt −238594,   DABS TTS 5.67s, ABS 12.16s @18.6%, Gurobi gap 0.00503%, D-Wave gap 0.0687%");
    println!("  QASP256: PotOpt −3656992,  DABS TTS 5.33s, ABS 4.57s @28.3%,  Gurobi gap 0.0219%,  D-Wave gap 0.0726%");
}
