//! Kill-and-restart end-to-end test of the durable job log.
//!
//! Drives the real `dabs serve --wal-dir` binary: submit jobs, SIGKILL the
//! process mid-run (no graceful shutdown, no flush window), restart it on
//! the same log directory, and prove the WAL's contract:
//!
//! * every admitted job survives — the unfinished one is re-admitted and
//!   runs to completion after restart,
//! * a finished job's terminal result survives — fetchable by id,
//! * idempotent resubmits collapse onto the original ids across the crash,
//!   so at-least-once submit retries never double-run work.

use dabs_server::{Client, JobSpec, ProblemSpec};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Start `dabs serve` on an ephemeral port and parse the bound address
/// from its banner line.
fn spawn_serve(wal_dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dabs"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--wal-dir",
        ])
        .arg(wal_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dabs serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before its banner")
            .expect("read banner");
        if let Some(rest) = line.strip_prefix("dabs-server listening on ") {
            break rest.split_whitespace().next().expect("addr").to_string();
        }
    };
    // Drain the rest of the banner on a detached thread so the child never
    // blocks on a full stdout pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn connect(addr: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::builder(addr).connect() {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn keyed_job(key: &str, batches: u64) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::random(24, 5),
        max_batches: Some(batches),
        idempotency_key: Some(key.to_string()),
        ..JobSpec::default()
    }
}

#[test]
fn killed_server_replays_admitted_jobs_and_collapses_resubmits() {
    let wal_dir = std::env::temp_dir().join(format!(
        "dabs-wal-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let (mut child, addr) = spawn_serve(&wal_dir);
    let mut client = connect(&addr);

    // Job A runs to completion before the crash; its result must survive.
    let done_ack = client
        .try_submit(&keyed_job("job-done", 50))
        .expect("submit done job");
    assert!(!done_ack.duplicate);
    let done_outcome = client.try_wait_result(done_ack.job).expect("done result");
    assert_eq!(done_outcome.phase, "done");
    let done_energy = done_outcome.result.as_ref().expect("result").energy;

    // Job B is effectively unbounded — still running (or queued) when the
    // process dies. Its WAL admit record is all that survives.
    let live_ack = client
        .try_submit(&keyed_job("job-live", u64::MAX / 2))
        .expect("submit live job");
    assert!(!live_ack.duplicate);

    // SIGKILL: no drain, no flush window, no terminal records for B.
    child.kill().expect("kill serve");
    child.wait().expect("reap serve");

    // Restart on the same log.
    let (mut child2, addr2) = spawn_serve(&wal_dir);
    let mut client2 = connect(&addr2);

    // A's terminal outcome was durably logged: resubmitting its key
    // collapses onto the original id and the result is fetchable at once.
    let again = client2
        .try_submit(&keyed_job("job-done", 50))
        .expect("resubmit done");
    assert!(again.duplicate, "completed job must collapse by key");
    assert_eq!(again.job, done_ack.job, "original id survives the crash");
    let replayed = client2.try_wait_result(again.job).expect("replayed result");
    assert_eq!(replayed.phase, "done");
    assert_eq!(
        replayed.result.expect("replayed result").energy,
        done_energy,
        "the stored result is the original, not a re-run"
    );

    // B was re-admitted from its admit record: same id, alive again.
    let live_again = client2
        .try_submit(&keyed_job("job-live", u64::MAX / 2))
        .expect("resubmit live");
    assert!(live_again.duplicate, "replayed job must collapse by key");
    assert_eq!(
        live_again.job, live_ack.job,
        "admitted job survives the kill"
    );
    let (phase, _) = client2.status(live_ack.job).expect("status");
    assert!(
        phase == "queued" || phase == "running",
        "re-admitted job must be live, got {phase}"
    );
    // It is genuinely running: cancel ends it with a terminal phase.
    client2.cancel(live_ack.job).expect("cancel");
    let ended = client2
        .try_wait_result(live_ack.job)
        .expect("cancelled result");
    assert_eq!(ended.phase, "cancelled");

    child2.kill().expect("kill serve 2");
    child2.wait().expect("reap serve 2");
    let _ = std::fs::remove_dir_all(&wal_dir);
}
