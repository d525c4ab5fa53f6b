//! Server-side observability: pool counters/histograms and per-job
//! timelines.
//!
//! [`PoolObs`] is the process-wide tally of scheduler activity — every
//! enqueue, pop, yield, expiry, and revocation, plus
//! log-bucketed histograms of queue wait and unit run time. It feeds the
//! `metrics` protocol verb (via [`PoolObs::metrics_into`]) next to the
//! solver's own counters.
//!
//! A [`TimelineEvent`] is one step of a job's life as the scheduler saw it:
//! admission, each unit's start (with its measured queue wait) and end,
//! every accepted incumbent, and the terminal transition. The record keeps
//! a bounded log of these (see `JobRecord`); the `timeline` verb ships it
//! to clients, and [`timeline_to_chrome`] reconstructs it as Chrome
//! `trace_event` spans for `dabs trace`.

use dabs_core::{push_hist, MetricSet};
use dabs_obs::{ChromeEvent, Counter, Gauge, LogHistogram};
use serde::json::Json;
use std::sync::OnceLock;

/// Process-wide pool activity counters and latency histograms.
#[derive(Debug)]
pub struct PoolObs {
    /// Units queued (admission + yield continuations).
    pub enqueued: Counter,
    /// Units popped off the queue by a worker.
    pub popped: Counter,
    /// Units created by priority-yielding a running unit's remainder.
    pub yields: Counter,
    /// Jobs expired by the stale-deadline dequeue check.
    pub expired: Counter,
    /// Units revoked without execution (cancel, shutdown drain).
    pub revoked: Counter,
    /// Unit executions that panicked and were contained by the worker's
    /// `catch_unwind` supervision boundary.
    pub unit_panics: Counter,
    /// Dead worker threads respawned by the supervisor tick.
    pub worker_restarts: Counter,
    /// Jobs quarantined after repeated unit panics.
    pub quarantined_jobs: Counter,
    /// Queued units shed by brownout to keep admission bounded.
    pub shed_units: Counter,
    /// Microseconds a unit waited in the queue before its pop.
    pub queue_wait_us: LogHistogram,
    /// Microseconds a claimed unit spent executing.
    pub unit_run_us: LogHistogram,
}

impl PoolObs {
    fn new() -> Self {
        Self {
            enqueued: Counter::new(),
            popped: Counter::new(),
            yields: Counter::new(),
            expired: Counter::new(),
            revoked: Counter::new(),
            unit_panics: Counter::new(),
            worker_restarts: Counter::new(),
            quarantined_jobs: Counter::new(),
            shed_units: Counter::new(),
            queue_wait_us: LogHistogram::new(),
            unit_run_us: LogHistogram::new(),
        }
    }

    /// Export everything under `pool.*` names.
    pub fn metrics_into(&self, set: &mut MetricSet) {
        use dabs_core::{Direction, Metric};
        let up = Direction::HigherIsBetter;
        for (name, c) in [
            ("pool.units_enqueued", &self.enqueued),
            ("pool.units_popped", &self.popped),
            ("pool.yields", &self.yields),
            ("pool.expired", &self.expired),
            ("pool.revoked", &self.revoked),
            ("pool.unit_panics", &self.unit_panics),
            ("pool.worker_restarts", &self.worker_restarts),
            ("pool.quarantined_jobs", &self.quarantined_jobs),
            ("pool.shed_units", &self.shed_units),
        ] {
            set.push(Metric::new(name, c.get() as f64, "count", up));
        }
        push_hist(set, "pool.queue_wait", "us", &self.queue_wait_us.snapshot());
        push_hist(set, "pool.unit_run", "us", &self.unit_run_us.snapshot());
    }
}

/// The process-wide [`PoolObs`] singleton (every pool in the process —
/// servers, tests, benches — tallies into the same counters, mirroring
/// [`dabs_core::solver_obs`]).
pub fn pool_obs() -> &'static PoolObs {
    static OBS: OnceLock<PoolObs> = OnceLock::new();
    OBS.get_or_init(PoolObs::new)
}

/// Model-layer counters of one model cache (see `ModelCache`): how often a
/// job's model came from the cache, how often it had to be built, what the
/// cache dropped, and what it holds.
#[derive(Debug, Default)]
pub(crate) struct ModelObs {
    /// Generator specs served from the cache.
    pub cache_hits: Counter,
    /// Generator specs the cache did not hold, so they were built.
    pub cache_misses: Counter,
    /// Models dropped, least recently used first, to stay in budget.
    pub cache_evictions: Counter,
    /// Heap bytes of the models the cache holds now.
    pub cache_bytes: Gauge,
    /// Microseconds per model actually built: every cache miss and every
    /// inline document (inline documents bypass the cache). A hit builds
    /// nothing and records nothing.
    pub build_us: LogHistogram,
}

impl ModelObs {
    /// Export everything under `model.*` names.
    pub(crate) fn metrics_into(&self, set: &mut MetricSet) {
        use dabs_core::{Direction, Metric};
        let up = Direction::HigherIsBetter;
        for (name, c) in [
            ("model.cache_hits", &self.cache_hits),
            ("model.cache_misses", &self.cache_misses),
            ("model.cache_evictions", &self.cache_evictions),
        ] {
            set.push(Metric::new(name, c.get() as f64, "count", up));
        }
        set.push(Metric::new(
            "model.cache_bytes",
            self.cache_bytes.get() as f64,
            "bytes",
            Direction::LowerIsBetter,
        ));
        push_hist(set, "model.build", "us", &self.build_us.snapshot());
    }
}

/// Process-wide serving-layer counters: event-loop activity and the durable
/// job log. The event loop drives the `net.*` family; the WAL drives
/// `wal.*`.
#[derive(Debug, Default)]
pub struct NetObs {
    /// Connections accepted by the event loop.
    pub accepted: Counter,
    /// Connections fully closed (all causes).
    pub closed: Counter,
    /// Request lines parsed and dispatched.
    pub lines_in: Counter,
    /// Response lines flushed to sockets.
    pub lines_out: Counter,
    /// Bytes read from sockets.
    pub bytes_in: Counter,
    /// Bytes written to sockets.
    pub bytes_out: Counter,
    /// Times a connection's outbound queue crossed the high-water mark and
    /// its reads were paused.
    pub read_pauses: Counter,
    /// Submits refused by per-tenant rate limiting.
    pub rate_limited: Counter,
    /// Submits collapsed onto an existing job by idempotency key.
    pub duplicate_submits: Counter,
    /// `epoll_wait` wakeups (readiness batches, not events).
    pub polls: Counter,
    /// Records appended to the job log.
    pub wal_appends: Counter,
    /// `sync_data` calls the flusher issued (appends ÷ syncs = batching).
    pub wal_syncs: Counter,
    /// Live (queued/running) jobs re-admitted by replay.
    pub wal_replayed_live: Counter,
    /// Terminal jobs re-registered by replay.
    pub wal_replayed_terminal: Counter,
    /// Torn-tail bytes dropped by replay.
    pub wal_truncated_bytes: Counter,
    /// Job-log write/fsync failures (each one also flips the WAL's
    /// degraded flag until a later sync succeeds).
    pub wal_errors: Counter,
}

impl NetObs {
    /// Export everything under `net.*` / `wal.*` names.
    pub fn metrics_into(&self, set: &mut MetricSet) {
        use dabs_core::{Direction, Metric};
        let up = Direction::HigherIsBetter;
        for (name, c) in [
            ("net.accepted", &self.accepted),
            ("net.closed", &self.closed),
            ("net.lines_in", &self.lines_in),
            ("net.lines_out", &self.lines_out),
            ("net.bytes_in", &self.bytes_in),
            ("net.bytes_out", &self.bytes_out),
            ("net.read_pauses", &self.read_pauses),
            ("net.rate_limited", &self.rate_limited),
            ("net.duplicate_submits", &self.duplicate_submits),
            ("net.polls", &self.polls),
            ("wal.appends", &self.wal_appends),
            ("wal.syncs", &self.wal_syncs),
            ("wal.replayed_live", &self.wal_replayed_live),
            ("wal.replayed_terminal", &self.wal_replayed_terminal),
            ("wal.truncated_bytes", &self.wal_truncated_bytes),
            ("wal.errors", &self.wal_errors),
        ] {
            set.push(Metric::new(name, c.get() as f64, "count", up));
        }
    }
}

/// The process-wide [`NetObs`] singleton, sibling of [`pool_obs`].
pub fn net_obs() -> &'static NetObs {
    static OBS: OnceLock<NetObs> = OnceLock::new();
    OBS.get_or_init(NetObs::default)
}

/// What happened at one point of a job's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineKind {
    /// The job passed admission and its units were queued.
    Admitted,
    /// A worker claimed unit `unit` (1-based start ordinal) after it waited
    /// `queue_wait_us` in the queue.
    UnitStart {
        unit: u32,
        worker: u64,
        queue_wait_us: u64,
    },
    /// Unit `unit` finished with `end` (`completed`/`interrupted`/
    /// `revoked`/`failed`) after executing `batches` batches.
    UnitEnd {
        unit: u32,
        end: String,
        batches: u64,
    },
    /// A strictly improving incumbent was accepted.
    Incumbent { energy: i64 },
    /// The job reached terminal phase `phase`.
    Terminal { phase: String },
}

/// One timestamped step of a job's timeline. `at_us` is microseconds since
/// the job was submitted; events are appended under one lock, so the
/// sequence is monotone by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    pub at_us: u64,
    pub kind: TimelineKind,
}

impl TimelineEvent {
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![("at_us", self.at_us.into())];
        match &self.kind {
            TimelineKind::Admitted => pairs.push(("ev", Json::str("admitted"))),
            TimelineKind::UnitStart {
                unit,
                worker,
                queue_wait_us,
            } => {
                pairs.push(("ev", Json::str("unit_start")));
                pairs.push(("unit", u64::from(*unit).into()));
                pairs.push(("worker", (*worker).into()));
                pairs.push(("queue_wait_us", (*queue_wait_us).into()));
            }
            TimelineKind::UnitEnd { unit, end, batches } => {
                pairs.push(("ev", Json::str("unit_end")));
                pairs.push(("unit", u64::from(*unit).into()));
                pairs.push(("end", Json::str(end.clone())));
                pairs.push(("batches", (*batches).into()));
            }
            TimelineKind::Incumbent { energy } => {
                pairs.push(("ev", Json::str("incumbent")));
                pairs.push(("energy", (*energy).into()));
            }
            TimelineKind::Terminal { phase } => {
                pairs.push(("ev", Json::str("terminal")));
                pairs.push(("phase", Json::str(phase.clone())));
            }
        }
        Json::obj(pairs)
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let at_us = j.get_u64("at_us").ok_or("timeline event needs \"at_us\"")?;
        let ev = j.get_str("ev").ok_or("timeline event needs \"ev\"")?;
        let unit = || {
            j.get_u64("unit")
                .map(|u| u as u32)
                .ok_or_else(|| format!("{ev:?} needs a \"unit\""))
        };
        let kind = match ev {
            "admitted" => TimelineKind::Admitted,
            "unit_start" => TimelineKind::UnitStart {
                unit: unit()?,
                worker: j.get_u64("worker").unwrap_or(0),
                queue_wait_us: j.get_u64("queue_wait_us").unwrap_or(0),
            },
            "unit_end" => TimelineKind::UnitEnd {
                unit: unit()?,
                end: j.get_str("end").unwrap_or("completed").to_string(),
                batches: j.get_u64("batches").unwrap_or(0),
            },
            "incumbent" => TimelineKind::Incumbent {
                energy: j.get_i64("energy").ok_or("incumbent needs \"energy\"")?,
            },
            "terminal" => TimelineKind::Terminal {
                phase: j.get_str("phase").unwrap_or("done").to_string(),
            },
            other => return Err(format!("unknown timeline event {other:?}")),
        };
        Ok(Self { at_us, kind })
    }
}

/// Reconstruct a fetched timeline as Chrome `trace_event`s: one complete
/// span per executed unit (on its worker's lane, preceded by a queue-wait
/// span covering the measured wait), instants for admission, incumbents,
/// and the terminal transition. Shared by `dabs trace` and the e2e tests.
pub fn timeline_to_chrome(job: u64, events: &[TimelineEvent]) -> Vec<ChromeEvent> {
    let instant = |name: &str, ts_us: u64, args: Vec<(String, i64)>| ChromeEvent {
        name: name.to_string(),
        cat: "job".into(),
        ph: 'i',
        ts_us,
        dur_us: 0,
        pid: 1,
        tid: 0,
        args,
    };
    let mut out = Vec::with_capacity(events.len() + 4);
    // Unit starts awaiting their matching end, keyed by start ordinal.
    let mut open: Vec<(u32, u64, u64, u64)> = Vec::new(); // (unit, worker, wait, at)
    for ev in events {
        match &ev.kind {
            TimelineKind::Admitted => {
                out.push(instant(
                    "admitted",
                    ev.at_us,
                    vec![("job".into(), job as i64)],
                ));
            }
            TimelineKind::UnitStart {
                unit,
                worker,
                queue_wait_us,
            } => {
                out.push(ChromeEvent {
                    name: "queue_wait".into(),
                    cat: "pool".into(),
                    ph: 'X',
                    ts_us: ev.at_us.saturating_sub(*queue_wait_us),
                    dur_us: *queue_wait_us,
                    pid: 1,
                    tid: *worker,
                    args: vec![
                        ("job".into(), job as i64),
                        ("unit".into(), i64::from(*unit)),
                    ],
                });
                open.push((*unit, *worker, *queue_wait_us, ev.at_us));
            }
            TimelineKind::UnitEnd { unit, end, batches } => {
                let idx = open.iter().position(|(u, ..)| u == unit);
                let (worker, wait, started) = idx.map_or((0, 0, ev.at_us), |i| {
                    let (_, w, q, at) = open.swap_remove(i);
                    (w, q, at)
                });
                out.push(ChromeEvent {
                    name: format!("unit_run:{end}"),
                    cat: "pool".into(),
                    ph: 'X',
                    ts_us: started,
                    dur_us: ev.at_us.saturating_sub(started),
                    pid: 1,
                    tid: worker,
                    args: vec![
                        ("job".into(), job as i64),
                        ("unit".into(), i64::from(*unit)),
                        ("batches".into(), *batches as i64),
                        ("queue_wait_us".into(), wait as i64),
                    ],
                });
            }
            TimelineKind::Incumbent { energy } => {
                out.push(instant(
                    "incumbent",
                    ev.at_us,
                    vec![("job".into(), job as i64), ("energy".into(), *energy)],
                ));
            }
            TimelineKind::Terminal { phase } => {
                out.push(instant(
                    &format!("terminal:{phase}"),
                    ev.at_us,
                    vec![("job".into(), job as i64)],
                ));
            }
        }
    }
    // A unit still open (job fetched mid-run) renders as a zero-length
    // marker so nothing silently disappears from the trace.
    for (unit, worker, _, at) in open {
        out.push(ChromeEvent {
            name: "unit_run:open".into(),
            cat: "pool".into(),
            ph: 'i',
            ts_us: at,
            dur_us: 0,
            pid: 1,
            tid: worker,
            args: vec![("job".into(), job as i64), ("unit".into(), i64::from(unit))],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_timeline() -> Vec<TimelineEvent> {
        vec![
            TimelineEvent {
                at_us: 0,
                kind: TimelineKind::Admitted,
            },
            TimelineEvent {
                at_us: 150,
                kind: TimelineKind::UnitStart {
                    unit: 1,
                    worker: 0,
                    queue_wait_us: 150,
                },
            },
            TimelineEvent {
                at_us: 200,
                kind: TimelineKind::Incumbent { energy: -42 },
            },
            TimelineEvent {
                at_us: 900,
                kind: TimelineKind::UnitEnd {
                    unit: 1,
                    end: "completed".into(),
                    batches: 500,
                },
            },
            TimelineEvent {
                at_us: 950,
                kind: TimelineKind::Terminal {
                    phase: "done".into(),
                },
            },
        ]
    }

    #[test]
    fn timeline_events_round_trip_through_json() {
        for ev in sample_timeline() {
            let line = ev.to_json().to_string();
            let back = TimelineEvent::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn chrome_reconstruction_pairs_start_and_end() {
        let chrome = timeline_to_chrome(7, &sample_timeline());
        let run = chrome
            .iter()
            .find(|e| e.name == "unit_run:completed")
            .expect("unit span");
        assert_eq!(run.ph, 'X');
        assert_eq!(run.ts_us, 150);
        assert_eq!(run.dur_us, 750);
        assert!(run.args.contains(&("batches".to_string(), 500)));
        let wait = chrome.iter().find(|e| e.name == "queue_wait").unwrap();
        assert_eq!(wait.ts_us, 0);
        assert_eq!(wait.dur_us, 150);
        // Instants for admission, incumbent, terminal.
        assert!(chrome.iter().any(|e| e.name == "admitted" && e.ph == 'i'));
        assert!(chrome.iter().any(|e| e.name == "incumbent"));
        assert!(chrome.iter().any(|e| e.name == "terminal:done"));
        // The whole reconstruction renders as a valid trace document.
        let doc = dabs_obs::chrome::write_trace(&chrome);
        assert!(doc.contains("\"traceEvents\""));
    }

    #[test]
    fn unmatched_start_renders_as_open_marker() {
        let events = vec![TimelineEvent {
            at_us: 10,
            kind: TimelineKind::UnitStart {
                unit: 3,
                worker: 2,
                queue_wait_us: 4,
            },
        }];
        let chrome = timeline_to_chrome(1, &events);
        assert!(chrome.iter().any(|e| e.name == "unit_run:open"));
    }

    #[test]
    fn pool_obs_exports_expected_metric_names() {
        let obs = pool_obs();
        obs.enqueued.inc();
        obs.queue_wait_us.record(120);
        let mut set = MetricSet::new();
        obs.metrics_into(&mut set);
        for name in [
            "pool.units_enqueued",
            "pool.units_popped",
            "pool.yields",
            "pool.expired",
            "pool.revoked",
            "pool.unit_panics",
            "pool.worker_restarts",
            "pool.quarantined_jobs",
            "pool.shed_units",
            "pool.queue_wait.p99",
            "pool.unit_run.mean",
        ] {
            assert!(set.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn model_obs_exports_expected_metric_names() {
        let obs = ModelObs::default();
        obs.cache_misses.inc();
        obs.cache_bytes.set(4096);
        obs.build_us.record(250);
        let mut set = MetricSet::new();
        obs.metrics_into(&mut set);
        for name in [
            "model.cache_hits",
            "model.cache_misses",
            "model.cache_evictions",
            "model.cache_bytes",
            "model.build.count",
            "model.build.p50",
        ] {
            assert!(set.get(name).is_some(), "missing {name}");
        }
        assert_eq!(set.get("model.cache_misses").unwrap().value, 1.0);
        assert_eq!(set.get("model.cache_bytes").unwrap().value, 4096.0);
        assert_eq!(set.get("model.build.count").unwrap().value, 1.0);
    }
}
