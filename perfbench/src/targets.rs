//! Stored `tts_paper` instance sets and the procedure that established
//! their targets.
//!
//! A target is the best energy two long, independent solver runs found on
//! the instance. Targets are computed once with `perfbench establish` and
//! pasted here; a measured run never computes one. The server runs every
//! job with the default `SearchParams` (the wire has no params field), so
//! `establish` uses exactly the solver `JobSpec::build_solver` makes.

use crate::workload::generator;
use dabs_server::{execute, JobPhase, JobRegistry, JobSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `tts_paper` instance: a generator spec, its stored target, and the
/// batch cap a job on it runs under.
#[derive(Debug, Clone, Copy)]
pub struct TtsInstance {
    pub kind: &'static str,
    pub n: usize,
    pub seed: u64,
    pub target: i64,
    pub max_batches: u64,
}

impl TtsInstance {
    pub fn job_spec(&self, solver_seed: u64) -> JobSpec {
        JobSpec {
            problem: generator(self.kind, self.n, self.seed),
            seed: solver_seed,
            target: Some(self.target),
            max_batches: Some(self.max_batches),
            ..JobSpec::default()
        }
    }
}

/// Solver seeds every instance runs with in one cycle of the stream.
pub const CYCLE_SOLVER_SEEDS: [u64; 24] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
];

/// Instance shapes of the paper's three families: `(kind, n, max_batches)`.
/// Sized so that median time-to-target is within ~3× across instances and
/// none is under ~5 ms, which keeps pooled percentiles inside one dense
/// part of the latency distribution.
const SHAPES: [(&str, usize, u64); 5] = [
    ("k2000", 224, 3000),
    ("g22", 200, 1000),
    ("g39", 300, 1000),
    ("tai", 9, 3000),
    ("qasp", 480, 3000),
];

/// Instance generator seed of the default set, and of the held-out set
/// kept for confirming a claimed gain on inputs it was not tuned on.
const DEFAULT_INSTANCE_SEED: u64 = 1;
const HELDOUT_INSTANCE_SEED: u64 = 1009;

/// Targets of the default set, in `SHAPES` order.
const DEFAULT_TARGETS: [i64; 5] = [-1405, -191, -120, -651745, -23234];
/// Targets of the held-out set, in `SHAPES` order.
const HELDOUT_TARGETS: [i64; 5] = [-1441, -189, -127, -818519, -20698];

fn set(seed: u64, targets: &[i64; 5]) -> Vec<TtsInstance> {
    SHAPES
        .iter()
        .zip(targets)
        .map(|(&(kind, n, max_batches), &target)| TtsInstance {
            kind,
            n,
            seed,
            target,
            max_batches,
        })
        .collect()
}

/// The stored instance set named `name`; any other name is refused, since
/// its targets were never established.
pub fn instance_set(name: &str) -> Result<Vec<TtsInstance>, String> {
    match name {
        "default" => Ok(set(DEFAULT_INSTANCE_SEED, &DEFAULT_TARGETS)),
        "heldout" => Ok(set(HELDOUT_INSTANCE_SEED, &HELDOUT_TARGETS)),
        other => Err(format!(
            "no stored tts_paper targets for instance set {other:?} (default|heldout)"
        )),
    }
}

/// `perfbench establish --instances default|heldout [--seconds S]`: run two
/// independent S-second solves per instance and print the targets they
/// establish (`--seconds 0` skips this), then time each job of the stored
/// cycle to its stored target the way a 1-worker server runs it.
pub fn establish(args: &[String]) -> Result<(), String> {
    let mut name = "default".to_string();
    let mut seconds = 20u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--instances" => name = value()?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("unknown establish flag {other:?}")),
        }
    }
    let stored = instance_set(&name)?;
    if seconds > 0 {
        let mut targets = Vec::new();
        for inst in &stored {
            let problem = generator(inst.kind, inst.n, inst.seed);
            let (model, label) = problem.build()?;
            let model = Arc::new(model);
            // Two independent solver seeds, run side by side.
            let runs: Vec<i64> = std::thread::scope(|s| {
                let handles: Vec<_> = [0x5eed_0001u64, 0x5eed_0002]
                    .map(|solver_seed| {
                        let model = Arc::clone(&model);
                        let spec = JobSpec {
                            problem: problem.clone(),
                            seed: solver_seed,
                            ..JobSpec::default()
                        };
                        s.spawn(move || {
                            let solver =
                                spec.build_solver().expect("default solver config is valid");
                            let term = dabs_core::Termination::time(Duration::from_secs(seconds));
                            solver.run_sequential(&model, term).energy
                        })
                    })
                    .into_iter()
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("establish run panicked"))
                    .collect()
            });
            let agree = if runs[0] == runs[1] {
                "agree"
            } else {
                "DISAGREE"
            };
            println!("{label}: long runs {runs:?} ({agree})");
            targets.push(runs[0].min(runs[1]));
        }
        println!("established targets: {targets:?}");
        if stored.iter().map(|i| i.target).ne(targets) {
            println!("note: the stored targets differ; paste these to adopt them");
        }
    }
    // `execute` is the unit fold a 1-worker pool runs.
    let mut cycle_ms = 0.0;
    for inst in &stored {
        let mut times = Vec::new();
        let mut batches = Vec::new();
        let mut misses = 0;
        for solver_seed in CYCLE_SOLVER_SEEDS {
            let record = JobRegistry::new().register(inst.job_spec(solver_seed));
            let t0 = Instant::now();
            execute(&record);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (phase, result, error) = record.snapshot();
            let result = result
                .filter(|_| phase == JobPhase::Done)
                .ok_or(format!("{}: {error:?}", inst.kind))?;
            if result.energy > inst.target {
                misses += 1;
            }
            cycle_ms += ms;
            times.push(ms);
            batches.push(result.batches);
        }
        times.sort_by(f64::total_cmp);
        batches.sort_unstable();
        let mid = times.len() / 2;
        println!(
            "{} n={}: time-to-target ms min {:.1} median {:.1} max {:.1}; batches median {} max {}; misses {misses}/{}",
            inst.kind,
            inst.n,
            times[0],
            times[mid],
            times[times.len() - 1],
            batches[mid],
            batches[batches.len() - 1],
            CYCLE_SOLVER_SEEDS.len()
        );
    }
    println!(
        "one cycle: {} jobs in {cycle_ms:.0} ms",
        stored.len() * CYCLE_SOLVER_SEEDS.len()
    );
    Ok(())
}
