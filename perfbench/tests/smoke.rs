//! The seconds-long smoke shape: every workload, untraced and traced, runs
//! end to end through the benchmark's own measuring code against an
//! in-process server (the real runs spawn the release `dabs serve`).

use dabs_server::{Server, ServerConfig};
use perfbench::run::{measure, Config, Report};
use perfbench::targets::instance_set;
use perfbench::workload::{stream, Workload};
use std::path::{Path, PathBuf};

const END_TO_END: [&str; 8] = [
    "setup_s",
    "jobs_per_s",
    "latency_ms.p50",
    "latency_ms.p90",
    "success_rate",
    "energy_ratio",
    "cpu_ms_per_job",
    "peak_rss_mb",
];

fn smoke(workload: Workload, trace: bool) -> (Report, PathBuf) {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}-{trace}", workload.name()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: workload.workers(),
            wal_dir: Some(dir.join("wal")),
            ..ServerConfig::default()
        },
    )
    .expect("bind an in-process server");
    let cfg = Config {
        workload,
        seed: 3,
        seconds: 0.5,
        trace,
        dabs: PathBuf::new(),
        instances: "default".into(),
        smoke: true,
        spans_dir: dir.join("spans"),
    };
    let tts = instance_set("default").expect("stored default targets");
    let jobs = stream(workload, cfg.seed, 1, &tts, true);
    let report = measure(
        &server.local_addr().to_string(),
        std::process::id(),
        &jobs,
        &cfg,
        &dir,
        &[0.001],
    )
    .unwrap_or_else(|e| panic!("{} smoke run: {e}", workload.name()));
    server.shutdown();
    (report, dir)
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let (report, _) = smoke(workload, false);
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.notes);
        assert!(report.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END);
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_smoke_times_every_layer_and_writes_spans() {
    for workload in Workload::ALL {
        let (report, dir) = smoke(workload, true);
        assert!(report.correct && report.failed == 0, "{:?}", report.notes);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{} lacks {name}", workload.name()))
                .value
        };
        for layer in [
            "protocol.decode_us.p50",
            "wal.append_us.p50",
            "solve.ms.p50",
            "trace.latency_ms.p50",
        ] {
            assert!(value(layer) > 0.0, "{} {layer}", workload.name());
        }
        assert!(report
            .notes
            .iter()
            .any(|n| n.starts_with("dominant layer: ")));
        let spans = std::fs::read_to_string(
            dir.join("spans")
                .join(format!("{}-seed3.jsonl", workload.name())),
        )
        .expect("spans written");
        for layer in [
            "\"client\"",
            "\"protocol.decode\"",
            "\"model.build\"",
            "\"solve\"",
            "\"protocol.encode\"",
        ] {
            assert!(
                spans.contains(layer),
                "{} spans lack {layer}",
                workload.name()
            );
        }
    }
}
