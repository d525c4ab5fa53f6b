//! Flag parsing and instance construction for the CLI.

use dabs_model::{KernelChoice, QuboModel};
use dabs_server::ProblemSpec;
use std::time::Duration;

/// Parsed options common to `solve` / `compare` / `info`.
#[derive(Debug, Clone)]
pub struct Options {
    pub problem: String,
    pub n: Option<usize>,
    pub seed: u64,
    pub budget: Duration,
    pub devices: usize,
    pub blocks: usize,
    pub use_abs: bool,
    pub target: Option<i64>,
    pub file: Option<String>,
    /// Energy-kernel backend (`auto` picks by instance density).
    pub kernel: KernelChoice,
    /// Bit-sliced bulk-search lane count (0 = scalar device legs; a
    /// multiple of 64 in [64, 256] switches devices to lockstep batches).
    pub batch_lanes: u32,
    /// Emit the solve result as one machine-readable JSON line.
    pub json: bool,
    /// Stream incumbents to stderr while solving.
    pub progress: bool,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            problem: String::new(),
            n: None,
            seed: 1,
            budget: Duration::from_millis(2000),
            devices: 4,
            blocks: 2,
            use_abs: false,
            target: None,
            file: None,
            kernel: KernelChoice::Auto,
            batch_lanes: 0,
            json: false,
            progress: false,
        };
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} requires a value"))
            };
            match a.as_str() {
                "--problem" => o.problem = value("problem")?,
                "--n" => o.n = Some(parse(&value("n")?, "n")?),
                "--seed" => o.seed = parse(&value("seed")?, "seed")?,
                "--budget-ms" => {
                    o.budget = Duration::from_millis(parse(&value("budget-ms")?, "budget-ms")?)
                }
                "--devices" => o.devices = parse(&value("devices")?, "devices")?,
                "--blocks" => o.blocks = parse(&value("blocks")?, "blocks")?,
                "--target" => o.target = Some(parse(&value("target")?, "target")?),
                "--file" => o.file = Some(value("file")?),
                "--kernel" => o.kernel = KernelChoice::from_name(&value("kernel")?)?,
                "--batch-lanes" => {
                    let lanes: u32 = parse(&value("batch-lanes")?, "batch-lanes")?;
                    if lanes != 0 && !dabs_model::valid_lanes(lanes as usize) {
                        return Err(format!(
                            "--batch-lanes {lanes}: use 0 for scalar, or a multiple of 64 in [64, 256]"
                        ));
                    }
                    o.batch_lanes = lanes;
                }
                "--abs" => o.use_abs = true,
                "--json" => o.json = true,
                "--progress" => o.progress = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if o.problem.is_empty() && o.file.is_none() {
            return Err("--problem or --file is required".into());
        }
        Ok(o)
    }

    /// Convert the flags into the shared [`ProblemSpec`] — the same
    /// construction path the server's job runtime uses, so `dabs solve` and
    /// a submitted job with identical parameters build identical models.
    pub fn problem_spec(&self) -> Result<(ProblemSpec, Option<String>), String> {
        if let Some(path) = &self.file {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = ProblemSpec {
                kernel: self.kernel,
                ..ProblemSpec::inline_text(text)
            };
            return Ok((spec, Some(format!("file:{path}"))));
        }
        Ok((
            ProblemSpec {
                kind: self.problem.clone(),
                n: self.n,
                seed: self.seed,
                inline: None,
                kernel: self.kernel,
            },
            None,
        ))
    }

    /// Build the QUBO model (plus a description) for the selected problem.
    pub fn build_model(&self) -> Result<(QuboModel, String), String> {
        let (spec, name_override) = self.problem_spec()?;
        let (model, name) = spec.build()?;
        Ok((model, name_override.unwrap_or(name)))
    }
}

/// Options for `dabs serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub addr: String,
    pub workers: usize,
    pub queue_capacity: usize,
    /// Durable job log directory: admitted jobs survive a crash and are
    /// re-admitted on restart.
    pub wal_dir: Option<String>,
    /// Per-tenant sustained admissions/sec (with `--burst` headroom);
    /// absent = no rate limiting.
    pub rate_per_sec: Option<f64>,
    pub burst: Option<f64>,
    /// Fault-injection spec (e.g. `seed=7,wal_fsync=0.5x2,unit_panic=0.05`);
    /// see `docs/RELIABILITY.md` for the grammar. Absent = no chaos.
    pub chaos: Option<String>,
    /// Keep accepting submits while the WAL is degraded (admissions are
    /// then volatile: a crash may lose them).
    pub allow_volatile: bool,
}

impl ServeOptions {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = ServeOptions {
            addr: "127.0.0.1:7878".into(),
            workers: 2,
            queue_capacity: 256,
            wal_dir: None,
            rate_per_sec: None,
            burst: None,
            chaos: None,
            allow_volatile: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} requires a value"))
            };
            match a.as_str() {
                "--addr" => o.addr = value("addr")?,
                "--workers" => o.workers = parse(&value("workers")?, "workers")?,
                "--queue" => o.queue_capacity = parse(&value("queue")?, "queue")?,
                "--wal-dir" => o.wal_dir = Some(value("wal-dir")?),
                "--rate" => o.rate_per_sec = Some(parse(&value("rate")?, "rate")?),
                "--burst" => o.burst = Some(parse(&value("burst")?, "burst")?),
                "--chaos" => o.chaos = Some(value("chaos")?),
                "--allow-volatile" => o.allow_volatile = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if o.workers == 0 {
            return Err("--workers must be ≥ 1".into());
        }
        if let Some(spec) = &o.chaos {
            dabs_server::FaultPlan::parse(spec).map_err(|e| format!("--chaos: {e}"))?;
        }
        if let Some(r) = o.rate_per_sec {
            if !r.is_finite() || r <= 0.0 {
                return Err("--rate must be > 0".into());
            }
        }
        if o.burst.is_some() && o.rate_per_sec.is_none() {
            return Err("--burst requires --rate".into());
        }
        Ok(o)
    }

    /// The admission rate config these flags describe (burst defaults to
    /// the per-second rate).
    pub fn rate_config(&self) -> Option<dabs_server::RateConfig> {
        self.rate_per_sec
            .map(|rate_per_sec| dabs_server::RateConfig {
                rate_per_sec,
                burst: self.burst.unwrap_or(rate_per_sec.max(1.0)),
            })
    }

    /// The armed fault plan `--chaos` describes (already validated by
    /// `parse`, so this cannot fail on parsed options).
    pub fn fault_plan(&self) -> Option<std::sync::Arc<dabs_server::FaultPlan>> {
        self.chaos
            .as_deref()
            .and_then(|spec| dabs_server::FaultPlan::parse(spec).ok())
            .map(std::sync::Arc::new)
    }
}

/// Options for `dabs loadgen`.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Target server; `None` spins up an in-process one.
    pub addr: Option<String>,
    pub clients: usize,
    pub jobs: usize,
    pub n: usize,
    pub batches: u64,
    /// Workers for the in-process server (ignored with `--addr`).
    pub workers: usize,
    pub seed: u64,
    /// Print pool-load snapshots (with yield deltas) every N ms
    /// while the fleet runs.
    pub watch_pool: Option<u64>,
}

impl LoadgenOptions {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = LoadgenOptions {
            addr: None,
            clients: 4,
            jobs: 20,
            n: 32,
            batches: 300,
            workers: 2,
            seed: 1,
            watch_pool: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} requires a value"))
            };
            match a.as_str() {
                "--addr" => o.addr = Some(value("addr")?),
                "--clients" => o.clients = parse(&value("clients")?, "clients")?,
                "--jobs" => o.jobs = parse(&value("jobs")?, "jobs")?,
                "--n" => o.n = parse(&value("n")?, "n")?,
                "--batches" => o.batches = parse(&value("batches")?, "batches")?,
                "--workers" => o.workers = parse(&value("workers")?, "workers")?,
                "--seed" => o.seed = parse(&value("seed")?, "seed")?,
                "--watch-pool" => o.watch_pool = Some(parse(&value("watch-pool")?, "watch-pool")?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if o.clients == 0 || o.jobs == 0 {
            return Err("--clients and --jobs must be ≥ 1".into());
        }
        if o.watch_pool == Some(0) {
            return Err("--watch-pool interval must be ≥ 1 ms".into());
        }
        Ok(o)
    }
}

/// Options for `dabs timeline` and `dabs trace` — both fetch one job's
/// event timeline from a running server; `trace` additionally exports it
/// as a Chrome `trace_event` file.
#[derive(Debug, Clone)]
pub struct TimelineOptions {
    pub job: u64,
    pub addr: String,
    /// `dabs trace` output path (defaulted there, unused by `timeline`).
    pub out: Option<String>,
}

impl TimelineOptions {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut job: Option<u64> = None;
        let mut addr = "127.0.0.1:7878".to_string();
        let mut out: Option<String> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} requires a value"))
            };
            match a.as_str() {
                "--addr" => addr = value("addr")?,
                "--job" => job = Some(parse(&value("job")?, "job")?),
                "--out" => out = Some(value("out")?),
                other if !other.starts_with('-') && job.is_none() => {
                    job = Some(parse(other, "job")?)
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let job = job.ok_or("a job id is required (positional or --job)")?;
        Ok(Self { job, addr, out })
    }
}

fn parse<T: std::str::FromStr>(v: &str, name: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(s: &str) -> Result<Options, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Options::parse(&args)
    }

    #[test]
    fn parses_complete_flag_set() {
        let o = opts("--problem g22 --n 150 --seed 9 --budget-ms 500 --devices 2 --blocks 3 --abs --target -42 --json --progress").unwrap();
        assert_eq!(o.problem, "g22");
        assert_eq!(o.n, Some(150));
        assert_eq!(o.seed, 9);
        assert_eq!(o.budget, Duration::from_millis(500));
        assert_eq!(o.devices, 2);
        assert_eq!(o.blocks, 3);
        assert!(o.use_abs);
        assert_eq!(o.target, Some(-42));
        assert!(o.json);
        assert!(o.progress);
    }

    #[test]
    fn json_and_progress_default_off() {
        let o = opts("--problem g22").unwrap();
        assert!(!o.json);
        assert!(!o.progress);
        assert_eq!(o.kernel, KernelChoice::Auto);
        assert_eq!(o.batch_lanes, 0);
    }

    #[test]
    fn batch_lanes_flag_validates_widths() {
        for ok in [0u32, 64, 128, 192, 256] {
            let o = opts(&format!("--problem g22 --batch-lanes {ok}")).unwrap();
            assert_eq!(o.batch_lanes, ok);
        }
        for bad in ["1", "32", "63", "96", "320", "moo"] {
            assert!(
                opts(&format!("--problem g22 --batch-lanes {bad}")).is_err(),
                "--batch-lanes {bad} should be rejected"
            );
        }
    }

    #[test]
    fn kernel_flag_selects_the_backend() {
        use dabs_model::KernelKind;
        for (flag, kind) in [("csr", KernelKind::Csr), ("dense", KernelKind::Dense)] {
            let o = opts(&format!("--problem random --n 24 --kernel {flag}")).unwrap();
            let (model, _) = o.build_model().unwrap();
            assert_eq!(model.kernel_kind(), kind, "--kernel {flag}");
        }
        assert!(opts("--problem random --kernel gpu").is_err());
    }

    #[test]
    fn requires_problem_or_file() {
        assert!(opts("--n 10").is_err());
        assert!(opts("--file x.qubo").is_ok());
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = opts("--problem g22 --bogus 1").unwrap_err();
        assert!(e.contains("bogus"));
    }

    #[test]
    fn builds_every_generator_kind() {
        for kind in ["k2000", "g22", "g39", "tai", "nug", "tho", "qasp", "random"] {
            let o = opts(&format!("--problem {kind}")).unwrap();
            let (model, name) = o.build_model().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(model.n() > 0, "{kind}");
            assert!(!name.is_empty());
        }
    }

    #[test]
    fn nug_requires_square_n() {
        let o = opts("--problem nug --n 10").unwrap();
        assert!(o.build_model().is_err());
    }

    #[test]
    fn unknown_problem_kind_errors() {
        let o = opts("--problem nonsense").unwrap();
        assert!(o.build_model().is_err());
    }

    #[test]
    fn file_kind_round_trips_through_io() {
        let q = {
            let mut b = dabs_model::QuboBuilder::new(4);
            b.add_linear(0, -3).add_quadratic(1, 2, 5);
            b.build().unwrap()
        };
        let path = std::env::temp_dir().join("dabs_cli_test.qubo");
        std::fs::write(&path, dabs_model::io::write_qubo(&q)).unwrap();
        let o = opts(&format!("--file {}", path.display())).unwrap();
        let (model, name) = o.build_model().unwrap();
        assert_eq!(model, q);
        assert!(name.starts_with("file:"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cli_flags_build_the_same_model_as_a_server_job_spec() {
        let o = opts("--problem random --n 24 --seed 8").unwrap();
        let (cli_model, _) = o.build_model().unwrap();
        let (spec, _) = o.problem_spec().unwrap();
        let (job_model, _) = spec.build().unwrap();
        assert_eq!(cli_model, job_model);
    }

    #[test]
    fn serve_options_defaults_and_flags() {
        let o = ServeOptions::parse(&[]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert_eq!(o.workers, 2);
        let args: Vec<String> = "--addr 0.0.0.0:9000 --workers 6 --queue 32"
            .split_whitespace()
            .map(String::from)
            .collect();
        let o = ServeOptions::parse(&args).unwrap();
        assert_eq!(
            (o.addr.as_str(), o.workers, o.queue_capacity),
            ("0.0.0.0:9000", 6, 32)
        );
        assert!(ServeOptions::parse(&["--workers".into(), "0".into()]).is_err());
    }

    #[test]
    fn serve_wal_and_rate_flags() {
        let args: Vec<String> = "--wal-dir /tmp/dabs-wal --rate 50 --burst 10"
            .split_whitespace()
            .map(String::from)
            .collect();
        let o = ServeOptions::parse(&args).unwrap();
        assert_eq!(o.wal_dir.as_deref(), Some("/tmp/dabs-wal"));
        let rate = o.rate_config().unwrap();
        assert_eq!((rate.rate_per_sec, rate.burst), (50.0, 10.0));
        // Burst defaults to the rate; rate must be positive; burst alone
        // is meaningless.
        let args: Vec<String> = vec!["--rate".into(), "5".into()];
        let o = ServeOptions::parse(&args).unwrap();
        assert_eq!(o.rate_config().unwrap().burst, 5.0);
        assert!(ServeOptions::parse(&["--rate".into(), "0".into()]).is_err());
        assert!(ServeOptions::parse(&["--burst".into(), "5".into()]).is_err());
        assert!(ServeOptions::parse(&[]).unwrap().rate_config().is_none());
    }

    #[test]
    fn serve_chaos_and_volatile_flags() {
        let args: Vec<String> = "--chaos seed=7,unit_panic=0.5x2 --allow-volatile"
            .split_whitespace()
            .map(String::from)
            .collect();
        let o = ServeOptions::parse(&args).unwrap();
        assert!(o.allow_volatile);
        assert_eq!(o.chaos.as_deref(), Some("seed=7,unit_panic=0.5x2"));
        assert!(o.fault_plan().is_some());
        // A malformed spec is refused at parse time, not at serve time.
        let bad: Vec<String> = vec!["--chaos".into(), "not_a_site=1".into()];
        assert!(ServeOptions::parse(&bad).is_err());
        // Defaults: no chaos, durable-only admission.
        let o = ServeOptions::parse(&[]).unwrap();
        assert!(o.chaos.is_none() && !o.allow_volatile && o.fault_plan().is_none());
    }

    #[test]
    fn loadgen_options_defaults_and_flags() {
        let o = LoadgenOptions::parse(&[]).unwrap();
        assert_eq!((o.clients, o.jobs), (4, 20));
        assert!(o.addr.is_none());
        let args: Vec<String> = "--addr 127.0.0.1:7878 --clients 8 --jobs 64 --n 16 --batches 50"
            .split_whitespace()
            .map(String::from)
            .collect();
        let o = LoadgenOptions::parse(&args).unwrap();
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!((o.clients, o.jobs, o.n, o.batches), (8, 64, 16, 50));
        assert!(o.watch_pool.is_none());
        assert!(LoadgenOptions::parse(&["--jobs".into(), "0".into()]).is_err());
    }

    #[test]
    fn loadgen_watch_pool_flag() {
        let args: Vec<String> = "--watch-pool 250"
            .split_whitespace()
            .map(String::from)
            .collect();
        let o = LoadgenOptions::parse(&args).unwrap();
        assert_eq!(o.watch_pool, Some(250));
        assert!(LoadgenOptions::parse(&["--watch-pool".into(), "0".into()]).is_err());
        assert!(LoadgenOptions::parse(&["--watch-pool".into()]).is_err());
    }

    #[test]
    fn timeline_options_positional_and_flags() {
        let args: Vec<String> = vec!["17".into()];
        let o = TimelineOptions::parse(&args).unwrap();
        assert_eq!((o.job, o.addr.as_str()), (17, "127.0.0.1:7878"));
        assert!(o.out.is_none());
        let args: Vec<String> = "--job 4 --addr 10.0.0.1:9 --out t.json"
            .split_whitespace()
            .map(String::from)
            .collect();
        let o = TimelineOptions::parse(&args).unwrap();
        assert_eq!((o.job, o.addr.as_str()), (4, "10.0.0.1:9"));
        assert_eq!(o.out.as_deref(), Some("t.json"));
        // A job id is mandatory; garbage and unknown flags are rejected.
        assert!(TimelineOptions::parse(&[]).is_err());
        assert!(TimelineOptions::parse(&["nonsense".into()]).is_err());
        assert!(TimelineOptions::parse(&["1".into(), "--bogus".into()]).is_err());
    }
}
