//! The repository benchmark. One command runs a named workload with a
//! seed, checks every output, and prints its metrics: the end-to-end
//! ones with `--trace 0`, the per-layer ones with `--trace 1`.
//!
//! ```text
//! perfbench --ndl <path/to/ndl> --workload exchange|reason|serve \
//!           --seed N --seconds S --trace 0|1
//! perfbench --ndl <path/to/ndl> --smoke
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give every timing with its sample count. The recorded parameters
//! (pattern cap, latency limit, rates, held-out seed), the layer map and
//! the predicted no-change pairs live in `perfbench/spec.json`.

mod exchange;
mod inputs;
mod layers;
mod openloop;
mod pipeline;
mod reason;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Run parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// The `ndl` binary the `serve` workload starts.
    pub ndl: PathBuf,
    /// Tiny inputs (smoke mode).
    pub tiny: bool,
    /// Recorded parameters from `perfbench/spec.json`.
    pub spec: spec::Spec,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result.
    pub details: Vec<String>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a detail line.
    pub fn detail(&mut self, line: impl Into<String>) {
        self.details.push(line.into());
    }

    /// Counts a failure, keeping its message if it is among the first.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The process's peak resident set, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threads the host offers.
pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Directory for run files (sockets, telemetry, span dumps).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_build/perfbench-out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = match cfg.workload.as_str() {
        "exchange" => exchange::run(cfg)?,
        "reason" => reason::run(cfg)?,
        "serve" => serve::run(cfg)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report.details.insert(
        0,
        format!(
            "perfbench: workload={} seed={} seconds={} trace={} threads_available={}",
            cfg.workload,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            threads_available()
        ),
    );
    if cfg.trace {
        layers::complete(&mut report);
    }
    Ok(report)
}

fn print(report: &Report) {
    for line in &report.details {
        println!("# {line}");
    }
    for e in &report.errors {
        println!("# FAILED: {e}");
    }
    println!("{}", report.json());
}

/// Every workload the benchmark can run. `BENCHMARK.json` lists the ones
/// the benchmark is judged by; `reason` is left out there (see
/// `perfbench/spec.json`) but still runs by name.
const WORKLOADS: [&str; 3] = ["exchange", "reason", "serve"];

/// Runs every workload tiny, traced and untraced, and checks that each
/// metric `BENCHMARK.json` names is printed with its unit.
fn smoke(base: &Config) -> Result<(), String> {
    let bench = spec::benchmark_metrics("BENCHMARK.json")?;
    let mut problems: Vec<String> = bench
        .workloads
        .iter()
        .filter(|w| !WORKLOADS.contains(&w.as_str()))
        .map(|w| format!("BENCHMARK.json names unknown workload {w:?}"))
        .collect();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                workload: workload.to_string(),
                trace,
                seconds: 1.0,
                tiny: true,
                ..base.clone()
            };
            let report = run(&cfg)?;
            print(&report);
            let wanted = if trace {
                &bench.per_layer
            } else {
                &bench.end_to_end
            };
            for (name, unit) in wanted {
                match report.metrics.iter().find(|(n, _, _)| n == name) {
                    Some((_, _, u)) if u == unit => {}
                    Some((_, _, u)) => {
                        problems.push(format!("{workload}: {name} in {u}, not {unit}"))
                    }
                    None => problems.push(format!("{workload} trace={trace}: {name} missing")),
                }
            }
            if report.metrics.len() != wanted.len() {
                problems.push(format!(
                    "{workload} trace={trace}: {} metrics printed, {} named",
                    report.metrics.len(),
                    wanted.len()
                ));
            }
            if report.failed > 0 {
                problems.push(format!(
                    "{workload} trace={trace}: {} failed",
                    report.failed
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn parse_args(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut ndl = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value()? == "1",
            "--ndl" => ndl = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let spec = spec::Spec::load("perfbench/spec.json")?;
    let cfg = Config {
        workload: workload.unwrap_or_default(),
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
        ndl: ndl.ok_or("--ndl <path> is required")?,
        tiny: false,
        spec,
    };
    if !smoke && cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok((cfg, smoke))
}

/// Fixes glibc's mmap and trim thresholds at their start-up values. A
/// user runs one `ndl chase` per process; the in-process loops run
/// thousands of operations in one, and glibc raises both thresholds
/// whenever a large block is freed, so an operation's page-fault cost
/// would depend on which operations ran before it. Fixed thresholds keep
/// every operation at the thresholds a fresh process starts with.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_allocator_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before this process starts any thread or allocates much.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
        mallopt(M_TRIM_THRESHOLD, 128 << 10);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_allocator_thresholds() {}

fn main() -> ExitCode {
    fix_allocator_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, smoke_mode) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if smoke_mode {
        return match smoke(&cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&cfg) {
        Ok(report) => {
            print(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
