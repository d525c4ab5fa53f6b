//! Command-line driver of the suite runner, the `suite` bin
//! (`cargo run -p dabs-bench --bin suite`): the one way to run the suite
//! and compare a run against a baseline.
//!
//! ```text
//! suite [--smoke | --full | --mode test|smoke|full] [--seed S]
//!       [--filter SUBSTR] [--out FILE] [--list]
//! suite compare --baseline FILE [--candidate FILE] [--tolerance-scale X]
//! ```
//!
//! Exit codes: 0 success (and `--help`), 1 gate failure, 2 usage or I/O
//! error. A run exits 1 only when its report fails schema validation: a
//! violated contract is a `contract_ok` of 0 in the report, which `compare`
//! gates against the baseline. `compare` exits 1 on a regression or a
//! missing gated metric. Any option a command does not read is a usage
//! error, refused before an entry runs.

use crate::baseline::compare;
use crate::report::SuiteReport;
use crate::suite::{registry, run_suite, Family, SuiteConfig, SuiteMode};
use crate::{Args, Table};
use std::path::Path;

/// Default candidate path: what the CI smoke step writes and the compare
/// step reads (`suite --smoke --out BENCH_ci.json && suite compare
/// --baseline BENCH_<pr>.json`).
pub const DEFAULT_CANDIDATE: &str = "BENCH_ci.json";

const USAGE: &str = "usage:
  suite [--smoke | --full | --mode test|smoke|full] [--seed S]
        [--filter SUBSTR] [--out FILE] [--list]
  suite compare --baseline FILE [--candidate FILE] [--tolerance-scale X]
";

/// The `--key value` options and `--flag`s each command reads.
const RUN_VALUES: [&str; 4] = ["mode", "seed", "filter", "out"];
const RUN_FLAGS: [&str; 3] = ["smoke", "full", "list"];
const COMPARE_VALUES: [&str; 3] = ["baseline", "candidate", "tolerance-scale"];

/// A command line, checked before anything runs.
#[derive(Debug)]
enum Command {
    Help,
    Run(Args),
    Compare(Args),
}

fn parse_command(argv: &[String]) -> Result<Command, String> {
    let compare = argv.first().map(String::as_str) == Some("compare");
    let rest = if compare { &argv[1..] } else { argv };
    if let Some(word) = argv.first().filter(|a| !compare && !a.starts_with("--")) {
        return Err(format!(
            "unknown subcommand {word:?} (expected `compare` or flags)"
        ));
    }
    let args = Args::parse(rest.to_vec());
    if args.flag("help") {
        return Ok(Command::Help);
    }
    if compare {
        args.expect_only(&COMPARE_VALUES, &[])?;
        Ok(Command::Compare(args))
    } else {
        args.expect_only(&RUN_VALUES, &RUN_FLAGS)?;
        Ok(Command::Run(args))
    }
}

/// Entry point. `argv` excludes the binary name.
pub fn run_from_args(argv: &[String]) -> i32 {
    match parse_command(argv) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            0
        }
        Ok(Command::Run(args)) => run_command(&args),
        Ok(Command::Compare(args)) => compare_command(&args),
        Err(e) => {
            eprint!("error: {e}\n{USAGE}");
            2
        }
    }
}

fn parse_mode(args: &Args) -> Result<SuiteMode, String> {
    let explicit: String = args.get("mode", String::new())?;
    match (args.flag("smoke"), args.flag("full"), explicit.as_str()) {
        (_, _, name) if !name.is_empty() => {
            SuiteMode::by_name(name).ok_or_else(|| format!("unknown --mode {name:?}"))
        }
        (true, true, _) => Err("--smoke and --full are mutually exclusive".into()),
        (_, true, _) => Ok(SuiteMode::Full),
        _ => Ok(SuiteMode::Smoke),
    }
}

fn run_command(args: &Args) -> i32 {
    let read = || -> Result<(SuiteConfig, String), String> {
        let filter: String = args.get("filter", String::new())?;
        let cfg = SuiteConfig {
            mode: parse_mode(args)?,
            seed: args.get("seed", 1u64)?,
            filter: (!filter.is_empty()).then_some(filter),
            verbose: true,
        };
        Ok((cfg, args.get("out", DEFAULT_CANDIDATE.to_string())?))
    };
    let (cfg, out_path) = match read() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if args.flag("list") {
        let mut table = Table::new(vec!["entry", "family", "about"]);
        for e in registry() {
            table.row(vec![
                e.name.to_string(),
                e.family.name().to_string(),
                e.about.to_string(),
            ]);
        }
        print!("{}", table.render());
        return 0;
    }
    println!(
        "dabs-bench suite — mode {}, seed {}{}",
        cfg.mode.name(),
        cfg.seed,
        cfg.filter
            .as_deref()
            .map(|f| format!(", filter {f:?}"))
            .unwrap_or_default()
    );
    let report = run_suite(&cfg);

    // An unfiltered run must cover every family; a filtered run only needs
    // to be structurally valid.
    let validation = if cfg.filter.is_none() {
        report.validate_coverage(&Family::ALL)
    } else {
        report.validate()
    };

    let mut table = Table::new(vec!["entry", "family", "wall", "metrics", "headline"]);
    for e in &report.entries {
        table.row(vec![
            e.name.clone(),
            e.family.name().to_string(),
            format!("{:.1}s", e.wall_ms as f64 / 1e3),
            e.metrics.len().to_string(),
            headline(e),
        ]);
    }
    print!("{}", table.render());
    println!(
        "suite wall {:.1}s{}",
        report.wall_ms as f64 / 1e3,
        report
            .cpu_ms
            .map(|c| format!(", cpu {:.1}s", c as f64 / 1e3))
            .unwrap_or_default()
    );

    if let Err(e) = report.write_file(Path::new(&out_path)) {
        eprintln!("error: {e}");
        return 2;
    }
    println!("wrote {out_path}");

    if let Err(e) = validation {
        eprintln!("error: report failed schema validation: {e}");
        return 1;
    }
    0
}

/// A short human-readable highlight per entry for the summary table.
fn headline(e: &crate::report::EntryReport) -> String {
    for (name, fmt) in [
        ("success_rate", "success"),
        ("jobs_per_s", "jobs/s"),
        ("contract_ok", "contract"),
    ] {
        if let Some(m) = e.metrics.get(name) {
            return match fmt {
                "success" => format!("success {:.0}%", 100.0 * m.value),
                "jobs/s" => format!("{:.1} jobs/s", m.value),
                _ => format!("contract {}", if m.value > 0.0 { "ok" } else { "VIOLATED" }),
            };
        }
    }
    String::new()
}

fn compare_command(args: &Args) -> i32 {
    let read = || -> Result<(String, String, f64), String> {
        Ok((
            args.get("baseline", String::new())?,
            args.get("candidate", DEFAULT_CANDIDATE.to_string())?,
            args.get("tolerance-scale", 1.0f64)?,
        ))
    };
    let (baseline_path, candidate_path, scale) = match read() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if baseline_path.is_empty() {
        eprintln!("error: compare requires --baseline FILE");
        return 2;
    }

    let baseline = match SuiteReport::read_file(Path::new(&baseline_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let candidate = match SuiteReport::read_file(Path::new(&candidate_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    for (name, r) in [(&baseline_path, &baseline), (&candidate_path, &candidate)] {
        if let Err(e) = r.validate() {
            eprintln!("error: {name} fails schema validation: {e}");
            return 2;
        }
    }
    match compare(&baseline, &candidate, scale) {
        Ok(outcome) => {
            print!(
                "comparing {candidate_path} (candidate) against {baseline_path} (baseline), tolerance scale {scale}\n{}",
                outcome.render()
            );
            if outcome.passed() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode(&args("")).unwrap(), SuiteMode::Smoke);
        assert_eq!(parse_mode(&args("--smoke")).unwrap(), SuiteMode::Smoke);
        assert_eq!(parse_mode(&args("--full")).unwrap(), SuiteMode::Full);
        assert_eq!(parse_mode(&args("--mode test")).unwrap(), SuiteMode::Test);
        assert!(parse_mode(&args("--mode nope")).is_err());
        assert!(parse_mode(&args("--smoke --full")).is_err());
    }

    #[test]
    fn compare_without_baseline_is_a_usage_error() {
        assert_eq!(compare_command(&args("")), 2);
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        assert_eq!(run_from_args(&["frobnicate".to_string()]), 2);
    }

    fn command(s: &str) -> Result<Command, String> {
        parse_command(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn help_prints_usage_instead_of_running() {
        assert!(matches!(command("--help"), Ok(Command::Help)));
        assert!(matches!(command("--smoke --help"), Ok(Command::Help)));
        assert!(matches!(command("compare --help"), Ok(Command::Help)));
        assert!(matches!(command("--smoke --seed 2"), Ok(Command::Run(_))));
        assert_eq!(run_from_args(&["--help".to_string()]), 0);
    }

    #[test]
    fn a_misspelt_run_option_is_refused_before_any_entry_runs() {
        assert_eq!(
            command("--smoke --filer server_load").unwrap_err(),
            "unknown option --filer"
        );
        assert_eq!(
            run_from_args(&["--filer".to_string(), "server_load".to_string()]),
            2
        );
    }

    #[test]
    fn a_misspelt_compare_option_is_refused() {
        let line = "compare --baseline BENCH_10.json --tolerence-scale 2";
        assert_eq!(
            command(line).unwrap_err(),
            "unknown option --tolerence-scale"
        );
        assert!(matches!(
            command("compare --baseline B --tolerance-scale 2"),
            Ok(Command::Compare(_))
        ));
        // The run options are not compare's.
        assert!(command("compare --baseline B --seed 2").is_err());
    }
}
