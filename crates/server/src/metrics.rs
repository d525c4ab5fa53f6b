//! Load-driving, latency bookkeeping, and pool-gauge summaries shared by
//! `dabs loadgen` and the suite's `server_load` entry.

use crate::client::Client;
use crate::protocol::Response;
use crate::spec::JobSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Drive a server with `clients` concurrent connections submitting `jobs`
/// jobs total (split round-robin), each submit→result synchronous.
/// `spec_for(client, j)` produces the j-th job of a client. Returns the
/// per-job submit→result latencies; errors if any job ends in a phase
/// other than `done`.
pub fn drive_fleet<F>(
    addr: &str,
    clients: usize,
    jobs: usize,
    spec_for: F,
) -> Result<Vec<Duration>, String>
where
    F: Fn(usize, usize) -> JobSpec + Send + Sync + 'static,
{
    let spec_for = Arc::new(spec_for);
    let handles: Vec<_> = (0..clients.max(1))
        .map(|c| {
            let jobs_c = jobs / clients + usize::from(c < jobs % clients);
            let addr = addr.to_string();
            let spec_for = Arc::clone(&spec_for);
            std::thread::spawn(move || -> Result<Vec<Duration>, String> {
                let mut client = Client::builder(addr).connect()?;
                let mut latencies = Vec::with_capacity(jobs_c);
                for j in 0..jobs_c {
                    let spec = spec_for(c, j);
                    let submitted = Instant::now();
                    let id = client.try_submit(&spec)?.job;
                    let outcome = client.try_wait_result(id)?;
                    if outcome.phase != "done" {
                        return Err(format!("job {id} ended {}", outcome.phase));
                    }
                    latencies.push(submitted.elapsed());
                }
                Ok(latencies)
            })
        })
        .collect();
    // Join *every* handle before reporting: returning on the first error
    // would leak the remaining client threads, which keep driving the
    // server (and racing the caller's teardown) behind its back.
    let mut all = Vec::with_capacity(jobs);
    let mut first_err: Option<String> = None;
    for h in handles {
        match h.join().map_err(|_| "client thread panicked".to_string()) {
            Ok(Ok(latencies)) => all.extend(latencies),
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(all),
    }
}

/// Summary over a set of request latencies and the wall-clock window that
/// produced them.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    pub jobs: usize,
    pub wall: Duration,
    pub min: Duration,
    pub p50: Duration,
    pub p99: Duration,
    pub max: Duration,
    pub mean: Duration,
}

impl LatencySummary {
    /// Build from raw samples (unsorted) and the overall wall-clock time.
    pub fn from_samples(mut samples: Vec<Duration>, wall: Duration) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort();
        let total: Duration = samples.iter().sum();
        let jobs = samples.len();
        // Mean via f64 seconds: integer Duration division truncates toward
        // zero (5ns over 3 jobs would report 1ns), while from_secs_f64
        // rounds to the nearest nanosecond.
        let mean = Duration::from_secs_f64(total.as_secs_f64() / jobs as f64);
        Some(Self {
            jobs,
            wall,
            min: samples[0],
            p50: percentile(&samples, 50.0),
            p99: percentile(&samples, 99.0),
            max: samples[jobs - 1],
            mean,
        })
    }

    /// Completed jobs per second of wall-clock time.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.jobs as f64 / self.wall.as_secs_f64()
    }

    /// One-line human report.
    pub fn report(&self) -> String {
        format!(
            "{} jobs in {:.3}s → {:.1} jobs/s · latency p50 {:.2}ms p99 {:.2}ms (min {:.2} mean {:.2} max {:.2})",
            self.jobs,
            self.wall.as_secs_f64(),
            self.jobs_per_sec(),
            self.p50.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
            self.min.as_secs_f64() * 1e3,
            self.mean.as_secs_f64() * 1e3,
            self.max.as_secs_f64() * 1e3,
        )
    }
}

/// Point-in-time pool load, extracted from a `stats` response. The gauge
/// fields mirror [`crate::PoolGauges`] but arrive over the wire, so a load
/// generator can watch a remote server's pool without sharing its process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLoad {
    pub workers: u64,
    pub busy: u64,
    pub queued_units: u64,
    /// The wire's `splits`: continuation units minted by priority yields.
    pub splits: u64,
}

impl PoolLoad {
    /// Extract from a [`Response::Stats`]; `None` for any other response.
    pub fn from_stats(response: &Response) -> Option<Self> {
        match response {
            Response::Stats {
                workers,
                busy_workers,
                queued_units,
                splits,
                ..
            } => Some(Self {
                workers: *workers,
                busy: *busy_workers,
                queued_units: *queued_units,
                splits: *splits,
            }),
            _ => None,
        }
    }

    /// Fraction of workers busy, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.workers == 0 {
            return 0.0;
        }
        self.busy as f64 / self.workers as f64
    }

    /// One-line human report.
    pub fn report(&self) -> String {
        format!(
            "pool {}/{} busy ({:.0}%) · {} units queued · {} splits",
            self.busy,
            self.workers,
            self.occupancy() * 100.0,
            self.queued_units,
            self.splits,
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&s, 50.0), ms(50));
        assert_eq!(percentile(&s, 99.0), ms(99));
        assert_eq!(percentile(&s, 100.0), ms(100));
        assert_eq!(percentile(&[ms(7)], 50.0), ms(7));
    }

    #[test]
    fn summary_reports_sane_numbers() {
        let samples = vec![ms(10), ms(20), ms(30), ms(40)];
        let s = LatencySummary::from_samples(samples, Duration::from_secs(2)).unwrap();
        assert_eq!(s.jobs, 4);
        assert_eq!(s.min, ms(10));
        assert_eq!(s.max, ms(40));
        assert_eq!(s.p50, ms(20));
        assert_eq!(s.mean, ms(25));
        assert!((s.jobs_per_sec() - 2.0).abs() < 1e-9);
        let line = s.report();
        assert!(line.contains("jobs/s"), "{line}");
        assert!(LatencySummary::from_samples(vec![], ms(1)).is_none());
    }

    #[test]
    fn mean_rounds_instead_of_truncating() {
        // 5ns over 3 jobs is 1.67ns: integer Duration division reported
        // 1ns; the f64 path rounds to the nearest nanosecond.
        let ns = Duration::from_nanos;
        let samples = vec![ns(1), ns(2), ns(2)];
        let s = LatencySummary::from_samples(samples, ns(10)).unwrap();
        assert_eq!(s.mean, ns(2));
    }

    #[test]
    fn pool_load_reads_stats_and_only_stats() {
        let stats = Response::Stats {
            queued: 1,
            running: 2,
            finished: 3,
            workers: 4,
            unit_threads: 1,
            queue_capacity: 64,
            busy_workers: 3,
            queued_units: 7,
            splits: 2,
        };
        let load = PoolLoad::from_stats(&stats).unwrap();
        assert_eq!(load.busy, 3);
        assert_eq!(load.queued_units, 7);
        assert!((load.occupancy() - 0.75).abs() < 1e-12);
        let line = load.report();
        assert!(line.contains("3/4 busy"), "{line}");
        assert!(line.contains("2 splits"), "{line}");
        assert!(PoolLoad::from_stats(&Response::Pong).is_none());
        let idle = PoolLoad {
            workers: 0,
            busy: 0,
            queued_units: 0,
            splits: 0,
        };
        assert_eq!(idle.occupancy(), 0.0);
    }
}
