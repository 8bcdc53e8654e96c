//! Host-speed calibration.
//!
//! On a shared host the same work runs up to a third slower for minutes
//! at a time (memory contention from neighbours; steal time stays near
//! zero and CPU time tracks wall time).  A fixed reference kernel that
//! shares no code with the program is timed between passes, and the
//! run's times are reported in calibrated seconds:
//! `raw × REFERENCE_S / median(kernel times)`.  A faster program still
//! reads faster; a slower host cancels out to the extent the kernel
//! feels the same contention.
//!
//! The kernel runs in a child process (the benchmark binary started with
//! [`CHILD_FLAG`]) so its 128 MiB never shows in the program's peak RSS.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The argument that turns the benchmark binary into the calibrator.
pub const CHILD_FLAG: &str = "--calibration-child";
/// Kernel time of one sample on an uncontended 2-vCPU host; only the
/// unit of the calibrated figures depends on it.
pub const REFERENCE_S: f64 = 0.2;
/// Nodes of the reference DAG: 2^23 nodes, 128 MiB, far beyond the caches.
const NODES: usize = 1 << 23;
/// Evaluation sweeps per sample.
const SWEEPS: u32 = 2;

/// A random two-input DAG evaluated in topological order: dependent
/// random reads over a working set larger than any cache.
struct Kernel {
    fanin: Vec<(u32, u32)>,
    values: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let fanin = (0..NODES)
            .map(|i| {
                if i < 64 {
                    (0, 0)
                } else {
                    ((next() % i as u64) as u32, (next() % i as u64) as u32)
                }
            })
            .collect();
        Kernel {
            fanin,
            values: (0..NODES as u64).collect(),
        }
    }

    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for s in 0..SWEEPS {
            for i in 64..NODES {
                let (a, b) = self.fanin[i];
                self.values[i] = (self.values[a as usize] & self.values[b as usize])
                    ^ self.values[i].rotate_left(s + 1);
            }
        }
        std::hint::black_box(&self.values);
        start.elapsed().as_secs_f64()
    }
}

/// The child's loop: build the kernel, say `ready`, then answer every
/// input line with one sample's seconds until standard input closes.
pub fn child_main() -> std::io::Result<()> {
    let mut kernel = Kernel::new();
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    for line in std::io::stdin().lock().lines() {
        line?;
        writeln!(out, "{}", kernel.sample())?;
        out.flush()?;
    }
    Ok(())
}

/// The parent's handle on the calibrator; the child is stopped and
/// waited for when this drops.
pub struct Calibrator {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    samples: Vec<f64>,
}

impl Calibrator {
    /// Starts the child and waits until its kernel is built.
    pub fn start() -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg(CHILD_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the calibrator: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut calibrator = Calibrator {
            child,
            stdin,
            stdout,
            samples: Vec::new(),
        };
        if calibrator.read_line()? != "ready" {
            return Err("the calibrator did not start".into());
        }
        Ok(calibrator)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the calibrator: {e}"))?;
        Ok(line.trim().to_string())
    }

    /// Times the kernel once; the program is idle meanwhile.
    pub fn sample(&mut self) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("calibrator closed")?;
        writeln!(stdin).map_err(|e| format!("writing the calibrator: {e}"))?;
        let seconds: f64 = self
            .read_line()?
            .parse()
            .map_err(|_| "the calibrator answered garbage".to_string())?;
        self.samples.push(seconds);
        Ok(())
    }

    /// Samples taken so far.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// The factor that turns this run's seconds into calibrated seconds,
    /// and the median kernel time behind it.
    pub fn factor(&self) -> (f64, f64) {
        let kernel = crate::stats::median(&self.samples);
        (REFERENCE_S / kernel, kernel)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
