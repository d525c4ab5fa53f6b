//! `dabs` — command-line front end to the DABS solver, baselines, and the
//! solve-job server.
//!
//! ```text
//! dabs solve   --problem k2000|g22|g39|tai|nug|tho|qasp --n N --seed S
//!              [--budget-ms B] [--devices D] [--blocks K] [--abs]
//!              [--json] [--progress]
//! dabs compare --problem … --n N --seed S [--budget-ms B]
//! dabs info    --problem … --n N --seed S
//! dabs serve   [--addr A] [--workers W] [--queue Q]
//! dabs loadgen [--addr A] [--clients C] [--jobs J] [--n N] [--batches B]
//!              [--watch-pool MS]
//! dabs timeline <job> [--addr A]
//! dabs trace   <job> [--addr A] [--out FILE]
//! ```

mod commands;
mod options;

use options::Options;
use std::io::Write;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage(&mut std::io::stderr());
        std::process::exit(2);
    }
    let command = args.remove(0);
    // Explicit help is a successful invocation: usage on stdout, exit 0.
    // (Errors keep printing usage to stderr with exit 2.)
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print_usage(&mut std::io::stdout());
        return;
    }
    let outcome = match command.as_str() {
        "serve" => commands::serve_from_args(&args),
        "loadgen" => commands::loadgen_from_args(&args),
        "timeline" => commands::timeline_from_args(&args),
        "trace" => commands::trace_from_args(&args),
        "solve" | "compare" | "info" => {
            let opts = match Options::parse(&args) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: {e}");
                    print_usage(&mut std::io::stderr());
                    std::process::exit(2);
                }
            };
            match command.as_str() {
                "solve" => commands::solve(&opts),
                "compare" => commands::compare(&opts),
                _ => commands::info(&opts),
            }
        }
        other => Err(format!("unknown command {other:?}")),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn print_usage(out: &mut dyn Write) {
    let _ = writeln!(
        out,
        "dabs — Diverse Adaptive Bulk Search QUBO solver

USAGE:
  dabs solve   --problem <kind> [--n N] [--seed S] [--budget-ms B]
               [--devices D] [--blocks K] [--abs] [--target E]
               [--kernel auto|csr|dense] [--json] [--progress]
  dabs compare --problem <kind> [--n N] [--seed S] [--budget-ms B]
  dabs info    --problem <kind> [--n N] [--seed S]
  dabs serve   [--addr A] [--workers W] [--queue Q] [--wal-dir DIR]
               [--rate R] [--burst B] [--chaos SPEC] [--allow-volatile]
  dabs loadgen [--addr A] [--clients C] [--jobs J] [--n N] [--batches B]
               [--workers W] [--seed S] [--watch-pool MS]
  dabs timeline <job> [--addr A]
  dabs trace   <job> [--addr A] [--out FILE]

PROBLEM KINDS:
  k2000 | g22 | g39   MaxCut instance classes (default n = 200)
  tai | nug | tho     QAP instance classes    (default n = 9)
  qasp                random Ising on an annealer topology (default n ≈ 500)
  random              random dense QUBO       (default n = 64)

FLAGS:
  --abs          use the ABS baseline preset instead of full DABS
  --target E     stop as soon as energy E is reached
  --budget-ms B  wall-clock budget per solve (default 2000)
  --kernel K     energy-kernel backend: auto (default; picks by instance
                 density), csr, or dense (see docs/ARCHITECTURE.md)
  --json         print the result as one machine-readable JSON line
  --progress     stream new incumbents to stderr as they are found

SERVER:
  dabs serve starts the solve-job runtime: a bounded priority queue in
  front of W long-lived solver workers, speaking newline-delimited JSON
  over TCP (see docs/PROTOCOL.md). dabs loadgen drives it with C
  concurrent clients × J jobs and reports jobs/s and latency percentiles;
  without --addr it spins up an in-process server first, and with
  --watch-pool MS it prints pool load + yield deltas every MS ms.
  --chaos SPEC arms deterministic fault injection (WAL errors, unit
  panics, worker kills, socket EIO — grammar in docs/RELIABILITY.md);
  --allow-volatile keeps admitting while the job log is degraded.

OBSERVABILITY:
  dabs timeline prints a job's recorded lifecycle (admission, per-unit
  start/end with queue waits, incumbents, terminal phase). dabs trace
  exports the same timeline as a Chrome trace_event JSON file for
  chrome://tracing or Perfetto (see docs/OBSERVABILITY.md)."
    );
}
