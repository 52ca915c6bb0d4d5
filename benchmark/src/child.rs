//! The programs under test, run as child processes: `edgeperf serve` and
//! `repro`. Every child is owned by a guard that kills it, waits for it and
//! removes its scratch directory on any exit path, panics included.

use crate::proc;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Where this run finds the repository, its binaries and its scratch space.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Checkout root (holds the root `Cargo.toml`).
    pub root: PathBuf,
    /// `release/` of the cargo target directory both builds share.
    pub bin_dir: PathBuf,
    /// `benchmark/out`: result files, traces and per-run scratch.
    pub out_dir: PathBuf,
}

impl Layout {
    pub fn edgeperf(&self) -> PathBuf {
        self.bin_dir.join("edgeperf")
    }

    pub fn repro(&self) -> PathBuf {
        self.bin_dir.join("repro")
    }

    /// A fresh scratch directory under `out/`, unique to this process.
    pub fn scratch(&self, tag: &str) -> std::io::Result<PathBuf> {
        let dir = self.out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Removes a scratch directory when dropped.
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Poll `child` until it exits or `deadline` passes.
fn wait_until(child: &mut Child, deadline: Instant) -> std::io::Result<Option<i32>> {
    loop {
        if let Some(status) = child.try_wait()? {
            // A signal death has no code; report it as a failure.
            return Ok(Some(status.code().unwrap_or(-1)));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A running `edgeperf serve`.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the child's stdout; ends at its EOF.
    stdout_reader: Option<std::thread::JoinHandle<()>>,
    /// The spill directory, removed with the server.
    _scratch: Option<ScratchDir>,
}

/// Server settings every live workload shares; see the README for why.
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_RETENTION: usize = 8;

impl Server {
    /// Start `edgeperf serve` on an ephemeral loopback port and wait for
    /// its `listening on ADDR` line.
    pub fn start(
        layout: &Layout,
        spill: Option<ScratchDir>,
        metrics: bool,
    ) -> Result<Server, Error> {
        let mut cmd = Command::new(layout.edgeperf());
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--lateness-ms", "60000"])
            .args(["--workers", &SERVE_WORKERS.to_string()])
            .args(["--retention", &SERVE_RETENTION.to_string()]);
        if let Some(dir) = &spill {
            cmd.arg("--spill-dir").arg(&dir.0);
        }
        if metrics {
            cmd.arg("--metrics");
        }
        let mut child =
            cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null()).spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The reader also drains the final snapshot line, so the child never
        // blocks on a full pipe while exiting.
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        // From here the guard owns the child: an error below still kills it.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout_reader: Some(stdout_reader),
            _scratch: spill,
        };
        let line = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "edgeperf serve did not print `listening on ADDR` within 10 s")?;
        server.addr = line.parse().map_err(|e| format!("bad listen address `{line}`: {e}"))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// After a client sent `shutdown`: wait for a clean exit.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<(), Error> {
        match wait_until(&mut self.child, Instant::now() + timeout)? {
            Some(0) => Ok(()),
            Some(code) => Err(format!("edgeperf serve exited with code {code}").into()),
            None => Err(format!("edgeperf serve still running {timeout:?} after shutdown").into()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

/// What one finished child run cost, measured from outside.
#[derive(Debug, Clone, Default)]
pub struct RunCost {
    pub exit_code: i32,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Run `program args…` to completion with stdout discarded and stderr kept
/// in `stderr_to`, polling its `VmHWM` every 50 ms. CPU is what the kernel
/// charges this process for the waited-for child, so it includes threads
/// that ended before the child did.
pub fn run_measured(
    program: &Path,
    args: &[&str],
    stderr_to: &Path,
    timeout: Duration,
) -> Result<RunCost, Error> {
    let cpu_before = proc::waited_children_cpu_ns().ok_or("cannot read /proc/self/stat")?;
    let started = Instant::now();
    let mut child = KillOnDrop(
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(stderr_to)?)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?,
    );
    let pid = child.0.id();
    let mut peak_kb = 0;
    let exit_code = loop {
        peak_kb = peak_kb.max(proc::hwm_kb(pid).unwrap_or(0));
        if let Some(code) = wait_until(&mut child.0, Instant::now() + Duration::from_millis(50))? {
            break code;
        }
        if started.elapsed() > timeout {
            return Err(format!("{} still running after {timeout:?}", program.display()).into());
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_after = proc::waited_children_cpu_ns().ok_or("cannot read /proc/self/stat")?;
    Ok(RunCost {
        exit_code,
        wall_s,
        cpu_s: cpu_after.saturating_sub(cpu_before) as f64 / 1e9,
        peak_rss_mb: peak_kb as f64 / 1024.0,
    })
}
