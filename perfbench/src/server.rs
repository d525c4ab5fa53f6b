//! The `dabs serve` child process: spawn, address discovery, `/proc`
//! readings, and teardown on every exit path.

use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `dabs serve` child with its own WAL directory. Dropping it
/// kills the child, waits for it, and removes the directory.
pub struct ServerProcess {
    child: Child,
    pub addr: String,
    dir: PathBuf,
    drain: Option<JoinHandle<()>>,
}

impl ServerProcess {
    /// Start `dabs serve` on an ephemeral localhost port with `workers`
    /// workers and its WAL in `dir` (created here, removed on drop).
    pub fn spawn(dabs: &Path, workers: usize, dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut cmd = Command::new(dabs);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--wal-dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        // SAFETY: the closure runs in the forked child before exec and only
        // makes one async-signal-safe system call. It asks the kernel to
        // kill the server if this process dies, so no exit path of the
        // benchmark — a panic or a kill included — leaves a server behind.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dabs.display()))?;
        let mut server = ServerProcess {
            child,
            addr: String::new(),
            dir,
            drain: None,
        };
        let stdout = server.child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read server banner: {e}"))?;
        // "dabs-server listening on 127.0.0.1:PORT — ..."
        server.addr = line
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        // Keep reading so the server never blocks on a full pipe.
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// User plus system CPU time process `pid` has used, in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let stat = read_proc(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime
    // are the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed /proc stat: {stat:?}"))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ * 1e3)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    status_kb(pid, "VmHWM:").map(|kb| kb / 1024.0)
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn read_proc(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// A `kB` field of `/proc/<pid>/status`.
pub fn status_kb(pid: u32, field: &str) -> Result<f64, String> {
    let status = read_proc(&format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/{pid}/status"))
}

/// Host context printed beside every run: not metrics, but what makes a
/// busy or different host visible next to them.
pub struct HostContext {
    nproc: usize,
    cpu: String,
    load1: String,
    steal_start: u64,
    probe_start_ms: f64,
}

impl HostContext {
    pub fn capture() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().map(String::from))
            .unwrap_or_else(|| "?".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            load1,
            steal_start: steal_ticks(),
            probe_start_ms: cpu_probe_ms(),
        }
    }

    /// One line: nproc, CPU model, load average at start, the steal time
    /// the host took from this machine's CPUs since the start, and a fixed
    /// CPU probe timed at the start and now (it grows on a busy host).
    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" load1_at_start={} steal_ms_during_run={:.0} cpu_probe_ms={:.1}/{:.1}",
            self.nproc,
            self.cpu,
            self.load1,
            steal_ticks().saturating_sub(self.steal_start) as f64 / USER_HZ * 1e3,
            self.probe_start_ms,
            cpu_probe_ms()
        )
    }
}

/// Milliseconds for a fixed 20M-step xorshift loop on one core.
fn cpu_probe_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Aggregate steal ticks from the `cpu` line of `/proc/stat`.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// A scratch directory of this run inside `root`. Directories left by
/// runs whose process no longer exists are removed first.
pub fn scratch_root(root: &Path) -> Result<PathBuf, String> {
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            let name = e.file_name();
            let stale = name
                .to_str()
                .and_then(|n| n.strip_prefix("run-"))
                .and_then(|pid| pid.parse::<u32>().ok())
                .is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
            if stale {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    let dir = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
