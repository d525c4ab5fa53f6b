//! End-to-end tests of the solve-job server over a real TCP socket.
//!
//! These drive the full stack — wire protocol, admission queue, worker
//! pool, job lifecycle — exactly as an external client would, and pin the
//! runtime's contract:
//!
//! * concurrent clients' job results are byte-identical to offline
//!   `run_sequential` runs of the same specs,
//! * `cancel` is honored mid-run within [`cancel_latency_bound`] (250 ms
//!   locally; a load-tolerant bound on shared CI runners),
//! * a job whose deadline has already passed is rejected at admission,
//! * a spec field out of its type's range is rejected, not truncated,
//! * an inline document whose coefficients overflow fails without a result,
//! * `subscribe` streams monotonically non-increasing incumbent energies.

use dabs::server::{
    now_unix_ms, timeline_to_chrome, Client, ErrorCode, JobSpec, ProblemSpec, Request, Response,
    Server, ServerConfig, TimelineKind, PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How quickly a mid-run `cancel` must produce the terminal result.
///
/// The 250 ms figure is the product contract and what a quiet developer
/// machine comfortably meets. Shared CI runners get descheduled for longer
/// than that under noisy neighbours, which used to flake this suite — so
/// when `CI` is set (as GitHub Actions does) the bound is load-tolerant.
/// `DABS_CANCEL_LATENCY_MS` overrides both, for pinning either regime
/// explicitly.
fn cancel_latency_bound() -> Duration {
    if let Some(ms) = std::env::var("DABS_CANCEL_LATENCY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        return Duration::from_millis(ms);
    }
    if std::env::var_os("CI").is_some() {
        Duration::from_millis(1500)
    } else {
        Duration::from_millis(250)
    }
}

fn start_server(workers: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_capacity: 128,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral server")
}

fn job(n: usize, seed: u64, batches: u64) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::random(n, seed),
        devices: 2,
        seed,
        max_batches: Some(batches),
        ..JobSpec::default()
    }
}

#[test]
fn concurrent_clients_get_results_matching_offline_reference() {
    const CLIENTS: usize = 4;
    const JOBS_PER_CLIENT: usize = 5; // ≥ 20 jobs total
    let server = start_server(3);
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::builder(addr).connect().expect("connect");
                let mut outcomes = Vec::new();
                for j in 0..JOBS_PER_CLIENT {
                    let seed = 100 + (c * JOBS_PER_CLIENT + j) as u64;
                    let spec = job(20 + 2 * j, seed, 120);
                    let id = client.try_submit(&spec).expect("submit").job;
                    let outcome = client.try_wait_result(id).expect("result");
                    outcomes.push((spec, outcome));
                }
                outcomes
            })
        })
        .collect();

    let mut total = 0;
    for h in handles {
        for (spec, outcome) in h.join().expect("client thread") {
            total += 1;
            assert_eq!(outcome.phase, "done", "{:?}", outcome.error);
            let result = outcome.result.expect("done jobs carry a result");
            // The server ran this job in deterministic sequential mode —
            // an offline run of the same spec must agree exactly.
            let (model, _) = spec.problem.build().unwrap();
            let reference = spec
                .build_solver()
                .unwrap()
                .run_sequential(&model, spec.termination());
            assert_eq!(result.energy, reference.energy, "spec {spec:?}");
            assert_eq!(result.best, reference.best);
            assert_eq!(result.batches, reference.batches);
            assert_eq!(model.energy(&result.best), result.energy, "energy honest");
        }
    }
    assert_eq!(total, CLIENTS * JOBS_PER_CLIENT);
    server.shutdown();
}

#[test]
fn mid_run_cancel_is_honored_quickly() {
    let server = start_server(1);
    let addr = server.local_addr();
    let mut client = Client::builder(addr).connect().expect("connect");

    // Effectively unbounded batch budget: only the cancel ends it.
    let id = client
        .try_submit(&job(48, 7, u64::MAX / 2))
        .expect("submit")
        .job;

    // Wait until the single worker picks it up.
    let t0 = Instant::now();
    loop {
        let (phase, _) = client.status(id).expect("status");
        if phase == "running" {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "job never started: {phase}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(30)); // let it do real work

    let cancel_at = Instant::now();
    let phase = client.cancel(id).expect("cancel");
    assert!(phase == "running" || phase == "cancelled", "{phase}");
    let outcome = client.try_wait_result(id).expect("result after cancel");
    let latency = cancel_at.elapsed();
    let bound = cancel_latency_bound();
    assert!(latency < bound, "cancel took {latency:?} (bound {bound:?})");
    assert_eq!(outcome.phase, "cancelled");
    // Partial result: whatever was best when the flag tripped.
    assert!(outcome.result.expect("partial result").batches > 0);
    server.shutdown();
}

#[test]
fn past_deadline_job_is_rejected_at_admission() {
    let server = start_server(1);
    let mut client = Client::builder(server.local_addr())
        .connect()
        .expect("connect");

    let late = JobSpec {
        deadline_unix_ms: Some(now_unix_ms().saturating_sub(2_000)),
        ..job(16, 3, 50)
    };
    let err = client
        .try_submit(&late)
        .expect_err("must be rejected")
        .to_string();
    assert!(err.contains("deadline"), "{err}");

    // And the raw wire response really is a `rejected` line.
    client
        .send(&Request::Submit(Box::new(JobSpec {
            deadline_unix_ms: Some(1),
            ..job(16, 3, 50)
        })))
        .unwrap();
    match client.recv().unwrap() {
        Response::Rejected { reason, .. } => assert!(reason.contains("deadline"), "{reason}"),
        other => panic!("expected rejected, got {other:?}"),
    }

    // A future deadline passes admission and completes.
    let ok = JobSpec {
        deadline_unix_ms: Some(now_unix_ms() + 120_000),
        ..job(16, 3, 50)
    };
    let id = client
        .try_submit(&ok)
        .expect("future deadline admitted")
        .job;
    assert_eq!(client.try_wait_result(id).unwrap().phase, "done");
    server.shutdown();
}

#[test]
fn an_out_of_range_spec_field_is_rejected_as_bad_spec() {
    let server = start_server(1);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let mut lines = BufReader::new(raw.try_clone().expect("clone")).lines();
    let mut next = || {
        let line = lines.next().expect("server closed").expect("read line");
        Response::parse_line(&line).expect("parse line")
    };
    // 2^32 + 1 units: truncated to u32, it would be a one-unit job.
    let submit = "{\"op\":\"submit\",\"job\":{\"problem\":{\"kind\":\"random\",\"n\":16},\
                  \"max_batches\":10,\"units\":4294967297}}";
    writeln!(raw, "{submit}").expect("submit");
    match next() {
        Response::Rejected { code, reason } => {
            assert_eq!(code, ErrorCode::BadSpec, "{reason}");
            assert!(reason.contains("units"), "{reason}");
        }
        other => panic!("expected rejected, got {other:?}"),
    }
    // Nothing was admitted, and the connection is still served.
    writeln!(raw, "{}", Request::Stats.to_json()).expect("stats");
    match next() {
        Response::Stats {
            queued,
            running,
            finished,
            ..
        } => assert_eq!((queued, running, finished), (0, 0, 0)),
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn an_inline_document_beyond_the_coefficient_bound_fails_without_a_best() {
    // M = 2^62 − 1 on both diagonals and the pair: the all-ones energy 3M
    // fits no i64. Admission reads only the header, so the job is admitted
    // and its model build refuses it.
    let m = i64::MAX / 2;
    let server = start_server(2);
    let mut client = Client::builder(server.local_addr())
        .connect()
        .expect("connect");
    let spec = JobSpec {
        problem: ProblemSpec::inline_text(format!("p qubo 0 2 2 1\n0 0 {m}\n1 1 {m}\n0 1 {m}\n")),
        seed: 1,
        max_batches: Some(50),
        ..JobSpec::default()
    };
    let id = client.try_submit(&spec).expect("admitted").job;
    let outcome = client.try_wait_result(id).expect("result");
    assert_eq!(outcome.phase, "failed");
    assert!(outcome.result.is_none(), "no best may be served");
    let error = outcome.error.expect("a failed job says why");
    assert!(error.contains("coefficients out of range"), "{error}");
    server.shutdown();
}

#[test]
fn subscribe_streams_monotone_incumbents() {
    let server = start_server(1);
    let addr = server.local_addr();

    // Park the single worker on a blocker so the real job stays queued
    // until the subscription is definitely attached — no race between
    // subscribing and the job finishing.
    let mut submitter = Client::builder(addr).connect().expect("connect");
    let blocker = submitter
        .try_submit(&JobSpec {
            time_ms: Some(300),
            max_batches: None,
            ..job(32, 1, 0)
        })
        .expect("blocker")
        .job;
    // Big enough instance and budget that the best improves several times.
    let id = submitter
        .try_submit(&job(64, 11, 4_000))
        .expect("submit")
        .job;

    // Subscribe from a second connection, as a dashboard would.
    let mut watcher = Client::builder(addr).connect().expect("connect watcher");
    let (incumbents, outcome) = watcher.subscribe(id).expect("subscribe stream");
    submitter.try_wait_result(blocker).expect("blocker result");

    assert_eq!(outcome.phase, "done");
    let final_energy = outcome.result.expect("result").energy;
    assert!(
        !incumbents.is_empty(),
        "stream must carry at least one incumbent"
    );
    for pair in incumbents.windows(2) {
        assert!(
            pair[1].0 <= pair[0].0,
            "incumbent energies must be non-increasing: {incumbents:?}"
        );
    }
    assert_eq!(
        incumbents.last().unwrap().0,
        final_energy,
        "stream must end at the final best"
    );
    server.shutdown();
}

#[test]
fn priorities_order_queued_work_on_a_busy_server() {
    // One worker, one long job holding it, then a low- and a high-priority
    // job: the high-priority one must finish first.
    let server = start_server(1);
    let addr = server.local_addr();
    let mut client = Client::builder(addr).connect().expect("connect");

    let blocker = client
        .try_submit(&JobSpec {
            time_ms: Some(600),
            max_batches: None,
            ..job(32, 1, 0)
        })
        .expect("blocker")
        .job;
    let low = client
        .try_submit(&JobSpec {
            priority: -5,
            ..job(16, 2, 40)
        })
        .expect("low")
        .job;
    let high = client
        .try_submit(&JobSpec {
            priority: 5,
            ..job(16, 3, 40)
        })
        .expect("high")
        .job;

    // Register both result-waits on ONE connection: terminal `done` lines
    // are pushed in completion order, so the arrival order on this socket
    // IS the execution order — no wall-clock comparison, no race. The
    // request order (low first) is the opposite of the expected completion
    // order, so a broken scheduler would flip the arrivals.
    let mut waiter = Client::builder(addr).connect().expect("connect");
    waiter.send(&Request::Result(low)).expect("send");
    waiter.send(&Request::Result(high)).expect("send");
    let mut done_order = Vec::new();
    while done_order.len() < 2 {
        if let Response::Done { job, phase, .. } = waiter.recv().expect("recv") {
            assert_eq!(phase, "done");
            done_order.push(job);
        }
    }
    assert_eq!(
        done_order,
        vec![high, low],
        "high priority must complete before low"
    );
    client.try_wait_result(blocker).expect("blocker result");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_units() {
    // One worker held by a huge job, three more jobs queued behind it.
    // `shutdown()` must stop dispatch, revoke the queued units without
    // executing them, interrupt the running unit at its next batch, and
    // join promptly — with the partially-run job reporting `cancelled`
    // and keeping its best-so-far result.
    let server = start_server(1);
    let addr = server.local_addr();
    let mut client = Client::builder(addr).connect().expect("connect");

    let running_id = client
        .try_submit(&job(32, 9, u64::MAX / 2))
        .expect("submit")
        .job;
    let queued_ids: Vec<_> = (0..3)
        .map(|i| {
            client
                .try_submit(&job(16, 20 + i, 500))
                .expect("submit")
                .job
        })
        .collect();

    let t0 = Instant::now();
    loop {
        let (phase, _) = client.status(running_id).expect("status");
        if phase == "running" {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(30)); // let it do real work

    // Keep record handles so the outcomes stay inspectable after the
    // sockets are gone.
    let state = server.state().clone();
    let running = state.registry.get(running_id).expect("record");
    let queued: Vec<_> = queued_ids
        .iter()
        .map(|&id| state.registry.get(id).expect("record"))
        .collect();

    let shutdown_at = Instant::now();
    server.shutdown();
    assert!(
        shutdown_at.elapsed() < Duration::from_secs(10),
        "shutdown hung: {:?}",
        shutdown_at.elapsed()
    );

    let (phase, result, _) = running.snapshot();
    assert_eq!(phase.name(), "cancelled");
    let partial = result.expect("partially-run job keeps its best-so-far");
    assert!(partial.batches > 0, "it really was mid-run");
    for record in &queued {
        let (phase, result, _) = record.snapshot();
        assert_eq!(phase.name(), "cancelled", "drained job {}", record.id);
        assert!(result.is_none(), "never-run job has no fabricated result");
        let (_, started, _) = record.unit_counts();
        assert_eq!(started, 0, "drained unit executed on job {}", record.id);
    }
}

#[test]
fn timeline_reconstructs_a_decomposed_job_and_exports_a_chrome_trace() {
    let server = start_server(2);
    let mut client = Client::builder(server.local_addr())
        .connect()
        .expect("connect");

    // Explicitly decompose into 4 stealable units so the timeline carries
    // several unit spans (with queue waits) rather than one whole-job run.
    let id = client
        .try_submit(&JobSpec {
            units: Some(4),
            ..job(48, 13, 2_000)
        })
        .expect("submit")
        .job;
    let outcome = client.try_wait_result(id).expect("result");
    assert_eq!(outcome.phase, "done", "{:?}", outcome.error);

    let (events, dropped) = client.timeline(id).expect("timeline");
    assert_eq!(dropped, 0, "a short job must not hit the timeline cap");

    // Timestamps are monotone by construction (stamped under the log's
    // lock) — the wire must preserve that.
    for pair in events.windows(2) {
        assert!(
            pair[1].at_us >= pair[0].at_us,
            "timeline out of order: {events:?}"
        );
    }

    // Lifecycle shape: admission first, then ≥2 unit start/end spans (4
    // units on 2 workers), incumbents in between, terminal `done` last.
    assert!(
        matches!(
            events.first().expect("non-empty").kind,
            TimelineKind::Admitted
        ),
        "first event must be admission: {events:?}"
    );
    let starts: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TimelineKind::UnitStart { unit, .. } => Some(*unit),
            _ => None,
        })
        .collect();
    let ends = events
        .iter()
        .filter(|e| matches!(&e.kind, TimelineKind::UnitEnd { end, .. } if end == "completed"))
        .count();
    assert!(starts.len() >= 2, "expected ≥2 unit spans: {events:?}");
    assert_eq!(starts.len(), ends, "every started unit must end");
    // Ordinals are unique (1-based from `begin_unit`); two workers may
    // interleave their pushes, so order across workers is not asserted.
    let distinct: std::collections::BTreeSet<_> = starts.iter().collect();
    assert_eq!(
        distinct.len(),
        starts.len(),
        "duplicate ordinal: {starts:?}"
    );
    match &events.last().expect("non-empty").kind {
        TimelineKind::Terminal { phase } => assert_eq!(phase, "done"),
        other => panic!("last event must be terminal, got {other:?}"),
    }

    // The Chrome export of that timeline must be valid trace_event JSON:
    // a traceEvents array whose objects carry name/cat/ph/ts/pid/tid.
    let chrome = timeline_to_chrome(id, &events);
    assert!(
        chrome.len() >= events.len(),
        "spans + instants can't collapse below the event count"
    );
    let doc = dabs::obs::chrome::write_trace(&chrome);
    let parsed = serde::json::Json::parse(&doc).expect("trace file parses");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert_eq!(trace_events.len(), chrome.len());
    let mut phases_seen = std::collections::BTreeSet::new();
    for ev in trace_events {
        assert!(ev.get_str("name").is_some(), "missing name: {ev:?}");
        assert!(ev.get_str("cat").is_some(), "missing cat: {ev:?}");
        let ph = ev.get_str("ph").expect("missing ph");
        assert!(matches!(ph, "X" | "i" | "B" | "E"), "bad phase {ph:?}");
        phases_seen.insert(ph.to_string());
        assert!(ev.get_u64("ts").is_some(), "missing ts: {ev:?}");
        assert!(ev.get_u64("pid").is_some(), "missing pid: {ev:?}");
        assert!(ev.get_u64("tid").is_some(), "missing tid: {ev:?}");
        if ph == "X" {
            assert!(ev.get_u64("dur").is_some(), "complete span needs dur");
        }
    }
    // Unit runs export as complete spans, lifecycle marks as instants.
    assert!(phases_seen.contains("X") && phases_seen.contains("i"));

    // The metrics verb sees the work this job just did.
    let metrics = client.metrics().expect("metrics");
    let popped = metrics.get("pool.units_popped").expect("pool counter");
    assert!(popped.value >= starts.len() as f64);
    assert!(metrics.get("pool.queue_wait.p50").is_some());
    assert!(metrics.get("solver.flips").expect("solver counter").value > 0.0);
    server.shutdown();
}

#[test]
fn v2_handshake_negotiates_and_v1_clients_still_work() {
    let server = start_server(1);
    let addr = server.local_addr().to_string();

    // The builder performs the hello handshake and lands on v2.
    let mut v2 = Client::builder(addr.clone())
        .tenant("e2e")
        .connect()
        .expect("v2 connect");
    assert_eq!(v2.protocol_version(), PROTOCOL_VERSION);
    let ack = v2.try_submit(&job(16, 4, 30)).expect("typed submit");
    assert!(!ack.duplicate);
    assert_eq!(v2.try_wait_result(ack.job).expect("result").phase, "done");

    // A connection that never sends `hello` speaks v1: same verbs, same
    // answers. Existing deployments must keep working unchanged.
    let mut v1 = TcpStream::connect(server.local_addr()).expect("v1 connect");
    let mut lines = BufReader::new(v1.try_clone().expect("clone")).lines();
    let mut next = || {
        let line = lines.next().expect("server closed").expect("read line");
        Response::parse_line(&line).expect("parse line")
    };
    let submit = Request::Submit(Box::new(job(16, 5, 30))).to_json();
    writeln!(v1, "{submit}").expect("v1 submit");
    let id = match next() {
        Response::Submitted { job, duplicate } => {
            assert!(!duplicate);
            job
        }
        other => panic!("expected submitted, got {other:?}"),
    };
    writeln!(v1, "{}", Request::Result(id).to_json()).expect("v1 result");
    match next() {
        Response::Done { job, phase, .. } => {
            assert_eq!(job, id);
            assert_eq!(phase, "done");
        }
        other => panic!("expected done, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn idempotent_resubmit_collapses_over_the_wire() {
    let server = start_server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::builder(addr.clone()).connect().expect("connect");

    let spec = JobSpec {
        idempotency_key: Some("e2e-collapse".into()),
        ..job(20, 8, 60)
    };
    let first = client.try_submit(&spec).expect("first submit");
    assert!(!first.duplicate);
    let outcome = client.try_wait_result(first.job).expect("result");
    assert_eq!(outcome.phase, "done");
    let energy = outcome.result.expect("result").energy;

    // Same key, fresh connection — the retry a client does after a lost
    // ack. It must land on the same job and fetch the original result.
    let mut retry = Client::builder(addr).connect().expect("reconnect");
    let second = retry.try_submit(&spec).expect("resubmit");
    assert!(second.duplicate, "same key must collapse");
    assert_eq!(second.job, first.job);
    let replayed = retry.try_wait_result(second.job).expect("replayed result");
    assert_eq!(replayed.phase, "done");
    assert_eq!(replayed.result.expect("result").energy, energy);
    server.shutdown();
}

#[test]
fn wal_preserves_jobs_across_graceful_restart() {
    let wal_dir = std::env::temp_dir().join(format!(
        "dabs-wal-restart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 64,
        wal_dir: Some(wal_dir.clone()),
        ..ServerConfig::default()
    };

    let first_id;
    let energy;
    {
        let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
        let mut client = Client::builder(server.local_addr().to_string())
            .connect()
            .expect("connect");
        let ack = client
            .try_submit(&JobSpec {
                idempotency_key: Some("restart-done".into()),
                ..job(20, 3, 50)
            })
            .expect("submit");
        first_id = ack.job;
        let outcome = client.try_wait_result(ack.job).expect("result");
        assert_eq!(outcome.phase, "done");
        energy = outcome.result.expect("result").energy;
        server.shutdown();
    }

    // Restart on the same log: the terminal outcome and the idempotency
    // key both survive, and new ids never collide with replayed ones.
    let server = Server::bind("127.0.0.1:0", config).expect("rebind");
    let mut client = Client::builder(server.local_addr().to_string())
        .connect()
        .expect("reconnect");
    let again = client
        .try_submit(&JobSpec {
            idempotency_key: Some("restart-done".into()),
            ..job(20, 3, 50)
        })
        .expect("resubmit");
    assert!(again.duplicate, "key must survive the restart");
    assert_eq!(again.job, first_id);
    let replayed = client.try_wait_result(again.job).expect("replayed result");
    assert_eq!(replayed.phase, "done");
    assert_eq!(replayed.result.expect("result").energy, energy);

    let fresh = client.try_submit(&job(16, 9, 30)).expect("fresh submit");
    assert!(
        fresh.job > first_id,
        "id allocation resumes past replayed ids"
    );
    assert_eq!(
        client.try_wait_result(fresh.job).expect("result").phase,
        "done"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn stats_and_ping_respond_over_the_wire() {
    let server = start_server(2);
    let mut client = Client::builder(server.local_addr())
        .connect()
        .expect("connect");
    client.ping().expect("ping");
    let id = client.try_submit(&job(16, 5, 30)).expect("submit").job;
    client.try_wait_result(id).expect("result");
    match client.stats().expect("stats") {
        Response::Stats {
            finished, workers, ..
        } => {
            assert!(finished >= 1);
            assert_eq!(workers, 2);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
}
