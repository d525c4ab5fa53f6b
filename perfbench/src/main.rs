//! `perfbench`: drives the release `dabs serve` binary over TCP with the
//! public `Client` and reports end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs). See README.md.
//!
//! ```text
//! perfbench --workload tts_paper|edge_inline|dense_repeat --seed N
//!           --seconds S --trace 0|1 --dabs PATH [--instances default|heldout] [--smoke]
//! perfbench establish --instances default|heldout [--seconds S]
//! ```
//!
//! The last line of standard output is the result as one JSON object.

use perfbench::{run, targets, workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<run::Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut dabs = None;
    let mut instances = "default".to_string();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(workload::Workload::from_name(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--dabs" => dabs = Some(PathBuf::from(value()?)),
            "--instances" => instances = value()?,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(run::Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        dabs: dabs.ok_or("--dabs is required")?,
        instances,
        smoke,
        spans_dir: PathBuf::from(run::SPANS),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("establish") {
        targets::establish(&args[1..]).map(|()| true)
    } else {
        parse(&args).and_then(|cfg| run::run(&cfg)).map(|report| {
            run::print(&report);
            report.correct
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a returned solution's energy did not match its reported energy");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
