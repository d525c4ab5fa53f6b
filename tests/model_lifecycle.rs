//! Memory regression test of the server's model lifecycle: after serving
//! more distinct dense generator specs than the model cache can hold, the
//! server keeps at most the cache budget in models, and no finished job
//! holds one.
//!
//! This file is its own test binary, so the process-wide `model.*` metrics
//! count this test's jobs alone and can be asserted exactly.

use dabs::model::KernelChoice;
use dabs::server::{Client, JobSpec, ProblemSpec, Server, ServerConfig, MODEL_CACHE_BUDGET};

fn dense_spec(seed: u64) -> JobSpec {
    JobSpec {
        // K2000-like: a complete graph, so `auto` selects the dense kernel.
        problem: ProblemSpec {
            kind: "k2000".into(),
            n: Some(1024),
            seed,
            inline: None,
            kernel: KernelChoice::Auto,
        },
        seed,
        max_batches: Some(1),
        ..JobSpec::default()
    }
}

#[test]
fn served_models_stay_within_the_cache_budget() {
    // Every K2000-like model at one n has the same size (all n(n−1)/2
    // edges carry ±1), so one local build sizes them all.
    let (model, _) = dense_spec(0).problem.build().unwrap();
    let model_bytes = model.heap_bytes();
    drop(model);
    let jobs = MODEL_CACHE_BUDGET / model_bytes + 2;
    assert!(jobs * model_bytes > MODEL_CACHE_BUDGET);

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral server");
    let mut client = Client::builder(server.local_addr())
        .connect()
        .expect("connect");
    let mut ids = Vec::new();
    for seed in 1..=jobs as u64 {
        let id = client.try_submit(&dense_spec(seed)).expect("admitted").job;
        let outcome = client.try_wait_result(id).expect("result");
        assert_eq!(outcome.phase, "done", "{:?}", outcome.error);
        ids.push(id);
    }
    // The newest spec is still cached: serving it again builds nothing.
    let again = client
        .try_submit(&dense_spec(jobs as u64))
        .expect("admitted")
        .job;
    assert_eq!(client.try_wait_result(again).expect("result").phase, "done");
    ids.push(again);

    for &id in &ids {
        let record = server.state().registry.get(id).expect("retained");
        assert!(record.phase().is_terminal());
        assert!(!record.holds_model(), "finished job {id} holds its model");
    }
    let metrics = client.metrics().expect("metrics");
    let metric = |name: &str| {
        metrics
            .get(name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .value
    };
    assert!(
        metric("model.cache_bytes") <= MODEL_CACHE_BUDGET as f64,
        "cache holds {} bytes over a {MODEL_CACHE_BUDGET}-byte budget",
        metric("model.cache_bytes")
    );
    let kept = MODEL_CACHE_BUDGET / model_bytes;
    assert_eq!(metric("model.cache_bytes"), (kept * model_bytes) as f64);
    assert_eq!(metric("model.cache_misses"), jobs as f64);
    assert_eq!(metric("model.cache_hits"), 1.0);
    assert_eq!(metric("model.cache_evictions"), (jobs - kept) as f64);
    assert_eq!(metric("model.build.count"), jobs as f64);
    server.shutdown();
}
