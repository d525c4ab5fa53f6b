//! The three workloads: what each sends, and how the server is shaped.
//!
//! Each workload is built so that a different layer does most of a job's
//! work (see README.md for the layer → metric → workload map):
//!
//! * `tts_paper` — solve. The paper's time-to-target protocol on its three
//!   families, sent as generator specs with a stored target each.
//! * `edge_inline` — the serving edge. Unique inline `.qubo` documents, so
//!   decode, admission, WAL and encode are as large as the solve.
//! * `dense_repeat` — model build and memory. Repeated big dense
//!   instances, each job spread over both workers.

use crate::targets::{TtsInstance, CYCLE_SOLVER_SEEDS};
use dabs_model::{io, KernelChoice, QuboBuilder, QuboModel};
use dabs_rng::{shuffle, Rng64, SplitMix64};
use dabs_server::{JobSpec, ProblemSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TtsPaper,
    EdgeInline,
    DenseRepeat,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TtsPaper,
        Workload::EdgeInline,
        Workload::DenseRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TtsPaper => "tts_paper",
            Workload::EdgeInline => "edge_inline",
            Workload::DenseRepeat => "dense_repeat",
        }
    }

    pub fn from_name(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload {name:?} (tts_paper|edge_inline|dense_repeat)")
            })
    }

    /// Server workers. Every workload is a closed loop on one connection,
    /// so a short job's tail is never another job's queueing; one worker
    /// makes a job's work a pure function of the job, and `dense_repeat`
    /// has two so its two-unit jobs span both.
    pub fn workers(self) -> usize {
        match self {
            Workload::TtsPaper | Workload::EdgeInline => 1,
            Workload::DenseRepeat => 2,
        }
    }
}

/// Jobs per block on `edge_inline` and `dense_repeat`: their jobs all cost
/// about the same, so the window may end after any job.
const UNIFORM_BLOCK: usize = 1;

/// One job of a stream: the spec sent on the wire, plus what the benchmark
/// needs to judge the reply.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: JobSpec,
    /// Stored target energy (`tts_paper` only): a `done` job counts as a
    /// success only at or below it.
    pub target: Option<i64>,
}

/// The job stream of one run. Job `i` of the run is `jobs[i % jobs.len()]`;
/// a window always ends on a multiple of `block` jobs, so every run of a
/// workload serves whole blocks of the same job mix.
#[derive(Debug)]
pub struct Stream {
    pub jobs: Vec<Job>,
    pub block: usize,
    /// Sent once before the window to finish set-up; not part of `jobs`.
    pub warmup: JobSpec,
}

impl Stream {
    pub fn job(&self, i: usize) -> &Job {
        &self.jobs[i % self.jobs.len()]
    }
}

/// Instance size of `edge_inline` documents: about 14 KB on the wire, where
/// the submit line's decode is milliseconds long, and jobs long enough that
/// a host's scheduling stalls do not set their p90.
const EDGE_N: usize = 96;
/// Batch budget of an `edge_inline` job: small enough that the serving
/// edge is close to half of the job, below the pool's split threshold so
/// the job stays one unit.
const EDGE_BATCHES: u64 = 100;
/// Unique documents rendered per second of window. A run that needs more
/// wraps around and reports the reuse.
const EDGE_DOCS_PER_SECOND: usize = 300;

/// `dense_repeat`: K2000-like instances of this size...
const DENSE_N: usize = 800;
/// ...this many distinct instances per run...
const DENSE_INSTANCES: u64 = 3;
/// ...each sent with this many solver seeds.
const DENSE_SEEDS: u64 = 40;
/// Batch budget of a `dense_repeat` job, split over two units.
const DENSE_BATCHES: u64 = 40;

/// Build the stream for `workload` from the run seed. `tts` is the stored
/// instance set; `seconds` sizes the `edge_inline` document pool; `smoke`
/// shrinks the stream so the whole path runs in a second or two.
pub fn stream(
    workload: Workload,
    seed: u64,
    seconds: u64,
    tts: &[TtsInstance],
    smoke: bool,
) -> Stream {
    let mut rng = SplitMix64::new(seed ^ 0x7065_7266_6265_6e63);
    match workload {
        Workload::TtsPaper => {
            // The cycle is fixed — every instance with every stored solver
            // seed — so each job's work is a pure function of the job. The
            // run seed only orders it.
            let seeds = if smoke {
                &CYCLE_SOLVER_SEEDS[..1]
            } else {
                &CYCLE_SOLVER_SEEDS[..]
            };
            let mut jobs: Vec<Job> = tts
                .iter()
                .flat_map(|inst| {
                    seeds.iter().map(|&solver_seed| Job {
                        spec: inst.job_spec(solver_seed),
                        target: Some(inst.target),
                    })
                })
                .collect();
            shuffle(&mut jobs, &mut rng);
            let block = jobs.len();
            let warmup = JobSpec {
                // An instance no cycle uses, on a fixed budget: tens of
                // milliseconds of solve, so process start jitter does not
                // set `setup_s`.
                problem: generator("k2000", 224, 1 << 40),
                max_batches: Some(200),
                ..JobSpec::default()
            };
            Stream {
                jobs,
                block,
                warmup,
            }
        }
        Workload::EdgeInline => {
            let docs = if smoke {
                64
            } else {
                seconds as usize * EDGE_DOCS_PER_SECOND
            };
            let jobs = (0..docs)
                .map(|_| Job {
                    spec: edge_job(&mut rng),
                    target: None,
                })
                .collect();
            let warmup = edge_job(&mut rng);
            Stream {
                jobs,
                block: UNIFORM_BLOCK,
                warmup,
            }
        }
        Workload::DenseRepeat => {
            let n = if smoke { 96 } else { DENSE_N };
            let instance_seeds: Vec<u64> =
                (0..DENSE_INSTANCES).map(|_| rng.next_u64() >> 1).collect();
            let mut jobs: Vec<Job> = instance_seeds
                .iter()
                .flat_map(|&inst| (0..DENSE_SEEDS).map(move |_| inst))
                .map(|inst| Job {
                    spec: dense_job(n, inst, rng.next_u64() >> 1),
                    target: None,
                })
                .collect();
            shuffle(&mut jobs, &mut rng);
            // The warm-up instance is outside the stream, so nothing a
            // server might cache from it helps the window.
            let warmup = dense_job(n, rng.next_u64() >> 1, 1);
            Stream {
                jobs,
                block: UNIFORM_BLOCK,
                warmup,
            }
        }
    }
}

pub fn generator(kind: &str, n: usize, seed: u64) -> ProblemSpec {
    ProblemSpec {
        kind: kind.into(),
        n: Some(n),
        seed,
        inline: None,
        kernel: KernelChoice::Auto,
    }
}

fn dense_job(n: usize, instance_seed: u64, solver_seed: u64) -> JobSpec {
    JobSpec {
        problem: generator("k2000", n, instance_seed),
        seed: solver_seed,
        max_batches: Some(DENSE_BATCHES),
        units: Some(2),
        ..JobSpec::default()
    }
}

fn edge_job(rng: &mut SplitMix64) -> JobSpec {
    JobSpec {
        problem: ProblemSpec::inline_text(io::write_qubo(&edge_model(rng))),
        seed: rng.next_u64() >> 1,
        max_batches: Some(EDGE_BATCHES),
        ..JobSpec::default()
    }
}

/// A tenant's own QUBO: density 0.3, coefficients in ±9.
fn edge_model(rng: &mut SplitMix64) -> QuboModel {
    let mut b = QuboBuilder::new(EDGE_N);
    for i in 0..EDGE_N {
        b.add_linear(i, rng.next_range_i64(-9, 9));
        for j in (i + 1)..EDGE_N {
            if rng.next_bool(0.3) {
                b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
            }
        }
    }
    b.build().expect("in-range random QUBO builds")
}
