//! The CLI subcommands.

use crate::options::{LoadgenOptions, Options, ServeOptions, TimelineOptions};
use dabs_baselines::bnb::{BnbConfig, BranchAndBound};
use dabs_baselines::hybrid::{HybridConfig, HybridSolver};
use dabs_baselines::sa::{SaConfig, SimulatedAnnealing};
use dabs_baselines::sb::{SbConfig, SimulatedBifurcation};
use dabs_core::{DabsConfig, DabsSolver, Incumbent, IncumbentObserver, Termination};
use dabs_server::{
    drive_fleet, timeline_to_chrome, Client, JobSpec, LatencySummary, PoolLoad, ProblemSpec,
    Server, ServerConfig, TimelineEvent, TimelineKind,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `dabs solve`: run DABS (or the ABS preset) and print the result.
pub fn solve(opts: &Options) -> Result<(), String> {
    let (model, name) = opts.build_model()?;
    let model = Arc::new(model);
    if !opts.json {
        println!(
            "instance: {name} — {} bits, {} quadratic terms",
            model.n(),
            model.edge_count()
        );
    }

    let mut cfg = if opts.use_abs {
        DabsConfig::abs_baseline(opts.devices, opts.blocks)
    } else {
        DabsConfig::dabs(opts.devices, opts.blocks)
    };
    cfg.seed = opts.seed;
    cfg.params.batch_lanes = opts.batch_lanes;
    let solver = DabsSolver::new(cfg)?;

    let mut term = Termination::time(opts.budget);
    if let Some(t) = opts.target {
        term = term.with_target(t);
    }
    let r = if opts.progress {
        // Live incumbents on stderr so stdout stays parseable under --json.
        let observer: IncumbentObserver = Arc::new(|inc: &Incumbent| {
            eprintln!(
                "incumbent: E = {} at {:.3}s",
                inc.energy,
                inc.found_at.as_secs_f64()
            );
        });
        solver.run_with_observer(&model, term, observer)
    } else {
        solver.run(&model, term)
    };
    if opts.json {
        // The same serialization the server protocol uses (core::wire).
        println!("{}", r.to_json());
        return Ok(());
    }
    println!(
        "solver:   {} ({} devices × {} blocks)",
        if opts.use_abs { "ABS baseline" } else { "DABS" },
        opts.devices,
        opts.blocks
    );
    println!("energy:   {}", r.energy);
    println!(
        "found at: {:.3}s of {:.3}s",
        r.time_to_best.as_secs_f64(),
        r.elapsed.as_secs_f64()
    );
    println!("batches:  {} ({} flips)", r.batches, r.flips);
    if let Some((algo, op)) = r.first_finder {
        println!("finder:   {} + {}", algo.name(), op.name());
    }
    if opts.target.is_some() {
        println!(
            "target:   {}",
            if r.reached_target {
                "reached"
            } else {
                "NOT reached"
            }
        );
    }
    Ok(())
}

/// `dabs serve`: run the solve-job server until killed.
pub fn serve_from_args(args: &[String]) -> Result<(), String> {
    let opts = ServeOptions::parse(args)?;
    let server = Server::bind(
        opts.addr.as_str(),
        ServerConfig {
            workers: opts.workers,
            queue_capacity: opts.queue_capacity,
            wal_dir: opts.wal_dir.as_ref().map(std::path::PathBuf::from),
            rate: opts.rate_config(),
            chaos: opts.fault_plan(),
            allow_volatile: opts.allow_volatile,
        },
    )
    .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    println!(
        "dabs-server listening on {} — {} workers, queue capacity {}",
        server.local_addr(),
        opts.workers,
        opts.queue_capacity
    );
    if let Some(dir) = &opts.wal_dir {
        println!("job log: {dir} (admitted jobs survive restart)");
    }
    if let Some(rate) = opts.rate_config() {
        println!(
            "admission rate: {}/s per tenant (burst {})",
            rate.rate_per_sec, rate.burst
        );
    }
    if let Some(spec) = &opts.chaos {
        println!("CHAOS ARMED: {spec} (fault injection is live on this server)");
    }
    if opts.allow_volatile {
        println!("volatile admission allowed: submits are accepted while the job log is degraded");
    }
    println!("protocol: newline-delimited JSON (see docs/PROTOCOL.md)");
    server.run_forever();
    Ok(())
}

/// `dabs loadgen`: drive a server with concurrent clients and report
/// throughput and latency percentiles.
pub fn loadgen_from_args(args: &[String]) -> Result<(), String> {
    let opts = LoadgenOptions::parse(args)?;
    // Without --addr, bring up an in-process server on an ephemeral port.
    let local = match &opts.addr {
        Some(_) => None,
        None => Some(
            Server::bind(
                "127.0.0.1:0",
                ServerConfig {
                    workers: opts.workers,
                    queue_capacity: (opts.jobs * 2).max(64),
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("cannot start in-process server: {e}"))?,
        ),
    };
    let addr = match (&opts.addr, &local) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.local_addr().to_string(),
        _ => unreachable!(),
    };
    println!(
        "loadgen: {} clients × {} jobs → {} (n = {}, {} batches/job)",
        opts.clients,
        opts.jobs,
        if opts.addr.is_some() {
            addr.clone()
        } else {
            format!("{addr} (in-process)")
        },
        opts.n,
        opts.batches
    );

    // --idle-conns: connection-scaling mode. Park this many idle sockets
    // on the server for the whole run — they cost the event loop one slab
    // slot and one epoll registration each, and active traffic must stay
    // fast behind them.
    let mut idle_pool = Vec::with_capacity(opts.idle_conns);
    if opts.idle_conns > 0 {
        for i in 0..opts.idle_conns {
            match std::net::TcpStream::connect(addr.as_str()) {
                Ok(s) => idle_pool.push(s),
                Err(e) => return Err(format!("idle conn {i}/{}: {e}", opts.idle_conns)),
            }
        }
        println!("holding {} idle connections for the run", idle_pool.len());
    }

    // --watch-pool: a side thread polls `stats` on its own connection and
    // prints pool load plus per-interval split deltas while the fleet
    // runs.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = opts.watch_pool.map(|interval_ms| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || watch_pool_loop(&addr, interval_ms, &stop))
    });

    let t0 = Instant::now();
    let (n, batches, seed_base) = (opts.n, opts.batches, opts.seed);
    let driven = drive_fleet(&addr, opts.clients, opts.jobs, move |c, j| {
        let seed = seed_base + (c * 10_007 + j) as u64;
        JobSpec {
            problem: ProblemSpec::random(n, seed),
            seed,
            max_batches: Some(batches),
            ..JobSpec::default()
        }
    });
    let wall = t0.elapsed();
    // Stop the watcher before tearing down the in-process server so its
    // polls don't race the listener going away.
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = watcher {
        let _ = h.join();
    }
    let all = driven?;
    drop(idle_pool);
    if let Some(s) = local {
        s.shutdown();
    }
    let summary = LatencySummary::from_samples(all, wall).ok_or("no jobs completed")?;
    println!("{}", summary.report());
    Ok(())
}

/// Poll `stats` every `interval_ms` and print pool-load lines to stderr
/// (stdout stays reserved for the loadgen summary). Best-effort: connect
/// or poll failures end the watch quietly rather than failing the run.
fn watch_pool_loop(addr: &str, interval_ms: u64, stop: &AtomicBool) {
    let Ok(mut client) = Client::connect(addr) else {
        eprintln!("watch-pool: cannot connect to {addr}");
        return;
    };
    let mut last: Option<PoolLoad> = None;
    while !stop.load(Ordering::Relaxed) {
        let Ok(response) = client.stats() else { return };
        if let Some(load) = PoolLoad::from_stats(&response) {
            let d_splits = match last {
                Some(prev) => load.splits.saturating_sub(prev.splits),
                None => load.splits,
            };
            eprintln!(
                "watch-pool: {} · Δ{interval_ms}ms: +{d_splits} splits",
                load.report()
            );
            last = Some(load);
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// One human-readable line per timeline event.
fn timeline_line(event: &TimelineEvent) -> String {
    let at = event.at_us as f64 / 1e3;
    let body = match &event.kind {
        TimelineKind::Admitted => "admitted".to_string(),
        TimelineKind::UnitStart {
            unit,
            worker,
            queue_wait_us,
        } => format!(
            "unit {unit} start on worker {worker} (queued {:.3}ms)",
            *queue_wait_us as f64 / 1e3
        ),
        TimelineKind::UnitEnd { unit, end, batches } => {
            format!("unit {unit} {end} after {batches} batches")
        }
        TimelineKind::Incumbent { energy } => format!("incumbent E = {energy}"),
        TimelineKind::Terminal { phase } => format!("terminal: {phase}"),
    };
    format!("{at:>10.3}ms  {body}")
}

/// `dabs timeline <job>`: print a job's recorded lifecycle events.
pub fn timeline_from_args(args: &[String]) -> Result<(), String> {
    let opts = TimelineOptions::parse(args)?;
    let mut client = Client::connect(opts.addr.as_str())
        .map_err(|e| format!("cannot connect to {}: {e}", opts.addr))?;
    let (events, dropped) = client.timeline(opts.job)?;
    println!("job {} — {} timeline events", opts.job, events.len());
    for event in &events {
        println!("{}", timeline_line(event));
    }
    if dropped > 0 {
        println!("({dropped} later events dropped at the per-job cap)");
    }
    Ok(())
}

/// `dabs trace`: export a job's timeline as a Chrome `trace_event` JSON
/// file (load in chrome://tracing or Perfetto).
pub fn trace_from_args(args: &[String]) -> Result<(), String> {
    let opts = TimelineOptions::parse(args)?;
    let out = opts.out.unwrap_or_else(|| "trace.json".to_string());
    let mut client = Client::connect(opts.addr.as_str())
        .map_err(|e| format!("cannot connect to {}: {e}", opts.addr))?;
    let (events, dropped) = client.timeline(opts.job)?;
    if dropped > 0 {
        eprintln!("trace: {dropped} later events were dropped at the per-job cap");
    }
    let chrome = timeline_to_chrome(opts.job, &events);
    std::fs::write(&out, dabs_obs::chrome::write_trace(&chrome))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} trace events for job {} to {out}",
        chrome.len(),
        opts.job
    );
    Ok(())
}

/// `dabs bench`: the unified benchmark suite (smoke/full/list/compare).
///
/// Thin veneer over [`dabs_bench::suite_cli`] — the same driver behind
/// `cargo run -p dabs-bench --bin suite` — translating the subcommand word
/// into the suite's flag form. Returns the process exit code (0 ok, 1 gate
/// failure, 2 usage error).
pub fn bench_from_args(args: &[String]) -> i32 {
    let flag = match args.first().map(String::as_str) {
        Some("smoke") => "--smoke",
        Some("full") => "--full",
        Some("list") => "--list",
        Some("compare" | "--help") => return dabs_bench::suite_cli::run_from_args(args),
        _ => {
            eprintln!("error: dabs bench expects smoke | full | list | compare");
            return 2;
        }
    };
    let mut translated = vec![flag.to_string()];
    translated.extend_from_slice(&args[1..]);
    dabs_bench::suite_cli::run_from_args(&translated)
}

/// `dabs compare`: run every solver in the repo on the same instance.
pub fn compare(opts: &Options) -> Result<(), String> {
    let (model, name) = opts.build_model()?;
    let model = Arc::new(model);
    println!(
        "instance: {name} — {} bits, {} quadratic terms",
        model.n(),
        model.edge_count()
    );
    println!("budget:   {:?} per solver\n", opts.budget);
    println!("{:<22} {:>14} {:>10}", "solver", "energy", "time");
    println!("{}", "-".repeat(48));

    let mut cfg = DabsConfig::dabs(opts.devices, opts.blocks);
    cfg.seed = opts.seed;
    cfg.params.batch_lanes = opts.batch_lanes;
    let r = DabsSolver::new(cfg)?.run(&model, Termination::time(opts.budget));
    println!(
        "{:<22} {:>14} {:>9.3}s",
        "DABS",
        r.energy,
        r.elapsed.as_secs_f64()
    );

    let mut abs_cfg = DabsConfig::abs_baseline(opts.devices, opts.blocks);
    abs_cfg.seed = opts.seed;
    let r = DabsSolver::new(abs_cfg)?.run(&model, Termination::time(opts.budget));
    println!(
        "{:<22} {:>14} {:>9.3}s",
        "ABS (baseline)",
        r.energy,
        r.elapsed.as_secs_f64()
    );

    let r = SimulatedAnnealing::new(SaConfig::scaled_to(&model, 2_000, opts.seed)).solve(&model);
    println!(
        "{:<22} {:>14} {:>9.3}s",
        "simulated annealing",
        r.energy,
        r.elapsed.as_secs_f64()
    );

    let r = HybridSolver::new(HybridConfig {
        time_limit: opts.budget,
        seed: opts.seed,
        ..HybridConfig::default()
    })
    .solve(&model);
    println!(
        "{:<22} {:>14} {:>9.3}s",
        "hybrid portfolio",
        r.energy,
        r.elapsed.as_secs_f64()
    );

    let r = BranchAndBound::new(BnbConfig {
        time_limit: opts.budget,
        heuristic_restarts: 16,
        seed: opts.seed,
    })
    .solve(&model);
    println!(
        "{:<22} {:>14} {:>9.3}s{}",
        "branch & bound",
        r.energy,
        r.elapsed.as_secs_f64(),
        if r.proven_optimal {
            "  (proven optimal)"
        } else {
            ""
        }
    );

    let (ising, c) = model.to_ising();
    let r = SimulatedBifurcation::new(SbConfig {
        steps: 5_000,
        seed: opts.seed,
        ..SbConfig::default()
    })
    .solve(&ising);
    println!(
        "{:<22} {:>14} {:>9.3}s",
        "discrete SB",
        (r.energy + c) / 4,
        r.elapsed.as_secs_f64()
    );
    Ok(())
}

/// `dabs info`: print instance statistics without solving.
pub fn info(opts: &Options) -> Result<(), String> {
    let (model, name) = opts.build_model()?;
    println!("instance:        {name}");
    println!("bits:            {}", model.n());
    println!("quadratic terms: {}", model.edge_count());
    println!(
        "density:         {:.3} → {} kernel",
        model.density(),
        model.kernel_kind().name()
    );
    println!("simd:            {}", dabs_model::simd_tier());
    println!("max |weight|:    {}", model.max_abs_weight());
    println!("trivial bound:   E ≥ {}", model.lower_bound());
    let degrees: Vec<usize> = (0..model.n())
        .map(|i| model.adjacency().degree(i))
        .collect();
    let avg = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
    println!(
        "degree:          avg {:.1}, max {}",
        avg,
        degrees.iter().max().unwrap_or(&0)
    );
    Ok(())
}
