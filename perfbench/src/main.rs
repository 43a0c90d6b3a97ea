//! Served-traffic benchmark of sysunc.
//!
//! ```text
//! perfbench --workload <cold-mc|batch-mixed|fleet-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Hosts the program (a `sysunc-serve` process, or a 2-shard fleet),
//! drives one workload at it from this process, checks every answer,
//! and prints one JSON result as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod bench;
mod drive;
mod host;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to drive.
    pub workload: workload::Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fleet-front") {
        return match host::fleet_front(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench fleet-front: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench::run(options) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
