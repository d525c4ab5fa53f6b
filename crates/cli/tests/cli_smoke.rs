//! End-to-end smoke tests for the `dabs` binary: the library crates are
//! covered by the workspace test suite, but the binary path — argument
//! parsing, instance construction, solver wiring, report printing, exit
//! codes — only gets exercised here.

use std::process::{Command, Output};

fn dabs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dabs"))
        .args(args)
        .output()
        .expect("failed to spawn the dabs binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn solve_runs_end_to_end_on_a_tiny_builtin_instance() {
    let out = dabs(&[
        "solve",
        "--problem",
        "random",
        "--n",
        "24",
        "--seed",
        "1",
        "--budget-ms",
        "200",
        "--devices",
        "2",
        "--blocks",
        "1",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in ["instance:", "solver:", "energy:", "batches:", "finder:"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn solve_stops_early_when_target_is_reached() {
    // Energy 0 is always reachable (the all-zeros vector), so --target 0
    // must terminate well before the generous budget.
    let out = dabs(&[
        "solve",
        "--problem",
        "random",
        "--n",
        "16",
        "--seed",
        "3",
        "--target",
        "0",
        "--budget-ms",
        "30000",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("reached") && !text.contains("NOT reached"),
        "expected early target stop in:\n{text}"
    );
}

#[test]
fn info_reports_instance_shape_without_solving() {
    let out = dabs(&["info", "--problem", "k2000", "--n", "32", "--seed", "1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in ["bits:", "quadratic terms:", "degree:"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    assert!(text.contains("32"), "instance size missing in:\n{text}");
    let simd = text
        .lines()
        .find_map(|l| l.strip_prefix("simd:"))
        .map(str::trim);
    assert!(
        matches!(simd, Some("avx512" | "avx2" | "portable")),
        "simd tier line in:\n{text}"
    );
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = dabs(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn explicit_help_prints_usage_to_stdout_and_exits_0() {
    for flag in ["help", "--help", "-h"] {
        let out = dabs(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} must succeed");
        assert!(stdout(&out).contains("USAGE"), "{flag}: usage on stdout");
        assert!(
            stderr(&out).is_empty(),
            "{flag}: nothing on stderr, got {}",
            stderr(&out)
        );
    }
}

#[test]
fn solve_json_emits_one_machine_readable_line() {
    let out = dabs(&[
        "solve",
        "--problem",
        "random",
        "--n",
        "16",
        "--seed",
        "2",
        "--budget-ms",
        "100",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "exactly one line, got:\n{text}");
    let line = lines[0];
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    for field in [
        "\"energy\":",
        "\"best\":",
        "\"batches\":",
        "\"frequencies\":",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
}

#[test]
fn loadgen_runs_an_in_process_server_end_to_end() {
    let out = dabs(&[
        "loadgen",
        "--clients",
        "2",
        "--jobs",
        "4",
        "--n",
        "16",
        "--batches",
        "40",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("jobs/s"), "throughput line missing:\n{text}");
    assert!(text.contains("p99"), "latency line missing:\n{text}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = dabs(&["solve", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("error"));
}

#[test]
fn unknown_command_fails_with_exit_1() {
    // `bench` is not a command: the suite's one runner is the `suite` bin.
    for command in ["frobnicate", "bench"] {
        let out = dabs(&[command, "--problem", "random"]);
        assert_eq!(out.status.code(), Some(1), "{command}");
        assert!(stderr(&out).contains("unknown command"), "{command}");
    }
}

#[test]
fn solve_refuses_a_file_whose_coefficients_overflow() {
    // M = 2^62 − 1 on both diagonals and the pair: the all-ones energy 3M
    // fits no i64, and it used to come back wrapped as the best answer.
    let m = i64::MAX / 2;
    let path = std::env::temp_dir().join(format!("dabs-overflow-{}.qubo", std::process::id()));
    std::fs::write(
        &path,
        format!("p qubo 0 2 2 1\n0 0 {m}\n1 1 {m}\n0 1 {m}\n"),
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let out = dabs(&[
        "solve",
        "--file",
        file,
        "--seed",
        "1",
        "--budget-ms",
        "200",
        "--json",
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(stdout(&out).is_empty(), "no result may be printed");
    assert!(
        stderr(&out).contains("coefficients out of range"),
        "stderr: {}",
        stderr(&out)
    );
}
