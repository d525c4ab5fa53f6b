//! Fault injection has one switch: `dabs serve --chaos <spec>`.
//!
//! Drives the real `dabs serve` binary. A server started without `--chaos`
//! injects nothing, whatever its environment holds (an environment
//! variable once armed a plan without any banner); a server started with
//! `--chaos` says so in its banner and injects.

use dabs_server::{Client, JobSpec, ProblemSpec};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Start `dabs serve` with `extra` arguments and environment `env`, run one
/// short job to its end, kill the server, and return the job's terminal
/// phase and the server's banner lines.
fn serve_one_job(extra: &[&str], env: &[(&str, &str)]) -> (String, Vec<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dabs"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .args(extra)
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dabs serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    // The banner opens with the bound address and ends with the protocol
    // line.
    let mut banner: Vec<String> = Vec::new();
    while !banner.last().is_some_and(|l| l.starts_with("protocol:")) {
        let line = lines.next().expect("serve exited before its banner");
        banner.push(line.expect("read banner"));
    }
    // Drain the rest on a detached thread so the child never blocks on a
    // full stdout pipe.
    std::thread::spawn(move || for _ in lines {});
    let addr = banner[0]
        .strip_prefix("dabs-server listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .expect("listening line");

    let mut client = Client::builder(addr).connect().expect("connect");
    let ack = client
        .try_submit(&JobSpec {
            problem: ProblemSpec::random(24, 5),
            max_batches: Some(50),
            ..JobSpec::default()
        })
        .expect("submit");
    let phase = client.try_wait_result(ack.job).expect("result").phase;
    child.kill().expect("kill serve");
    child.wait().expect("reap serve");
    (phase, banner)
}

#[test]
fn the_dabs_chaos_env_var_arms_nothing() {
    let (phase, banner) = serve_one_job(&[], &[("DABS_CHAOS", "seed=1,unit_panic=1")]);
    assert_eq!(phase, "done", "a server without --chaos must not inject");
    assert!(!banner.iter().any(|l| l.contains("CHAOS")), "{banner:?}");
}

#[test]
fn the_chaos_flag_arms_faults_and_says_so() {
    let (phase, banner) = serve_one_job(&["--chaos", "seed=1,unit_panic=1"], &[]);
    // Every unit panics, so the job is quarantined and fails.
    assert_eq!(phase, "failed");
    assert!(
        banner.iter().any(|l| l.starts_with("CHAOS ARMED")),
        "{banner:?}"
    );
}
