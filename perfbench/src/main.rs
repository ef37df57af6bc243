//! The repository benchmark: end-to-end and per-layer metrics of the
//! rlmul optimizers (in-process) and of the `rlmul serve` job server
//! (as a child process, over HTTP).
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --rlmul PATH
//! ```
//!
//! Every diagnostic goes to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. See `perfbench/README.md` for the workloads,
//! the metric definitions and the layer map.

mod cli;
mod http;
mod loadgen;
mod pace;
mod quality;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs attempted in the measured phase.
    pub attempted: usize,
    /// Jobs that failed or violated a correctness check.
    pub failed: usize,
    /// End-to-end or per-layer metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinity; a failed job's latency is
                // reported as the largest finite double.
                let v = if m.value.is_finite() { m.value } else { f64::MAX };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// The `rlmul` binary (serve-mix only).
    pub rlmul: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)
            .ok_or_else(|| format!("missing {flag}"))?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload").ok_or("missing --workload")?.to_owned(),
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: num("--trace")? == 1,
        rlmul: get("--rlmul").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload.as_str(), cli_workload(&args.workload)) {
        (_, Some(w)) => cli::run(w, &args),
        ("serve-mix", None) => serve::run(&args),
        (other, None) => Err(format!("unknown workload `{other}`")),
    };
    match report {
        Ok(r) => {
            println!("{}", r.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workload named by `--workload` for a CLI workload name.
fn cli_workload(name: &str) -> Option<&'static cli::CliWorkload> {
    match name {
        "sa-mbe16" => Some(&cli::SA_MBE16),
        "dqn-and8-surrogate" => Some(&cli::DQN_AND8_SURROGATE),
        _ => None,
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".into())
}
