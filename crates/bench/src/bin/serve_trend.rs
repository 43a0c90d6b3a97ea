//! Folds a loadgen suite into the serve trend trajectory and trips on
//! throughput regressions.
//!
//! ```text
//! serve_trend [--in BENCH_serve.json] [--out BENCH_serve_trend.json]
//!             [--baseline serve.baseline] [--write-baseline]
//!             [--min-ratio 0.8] [--fleet-in BENCH_fleet.json]
//!             [--fleet-speedup 1.7] [--fleet-speedup-floor 0.15]
//! ```
//!
//! Reads a `sysunc-bench-serve/2` suite document, appends one
//! `sysunc-bench-serve-trend/1` record to `--out`, and fails the run
//! when
//!
//! - a mode's throughput drops below `--min-ratio` (default 0.8, i.e.
//!   a >20% regression) of the `--baseline` run's;
//! - the cache-hot mode misses the cache on more than
//!   `clients × hot_seeds` jobs (each client misses each hot key at
//!   most once, before it is cached), counted from the server's
//!   `X-Sysunc-Cache` verdicts, or its p50 is not below cold's. This
//!   gate needs no baseline.
//!
//! `--fleet-in` merges a second suite from a `loadgen --fleet N` run
//! (its modes are keyed `fleet-<mode>`) into the trend record and arms
//! two fleet gates:
//!
//! - any failed request in a fleet mode fails the run — the router's
//!   retry loop must absorb child crashes completely;
//! - fleet-cache-hot throughput must beat single-process cache-hot by
//!   `--fleet-speedup` (default 1.7) when the recording machine had at
//!   least [`FLEET_FULL_CORES`] cores, or by `--fleet-speedup-floor`
//!   (default 0.15) on smaller machines, where shards time-slice one
//!   core and only routing overhead is measurable.
//!
//! The baseline stays single-process: fleet rows are appended to the
//! trend record but never written into `--baseline`, so the
//! regression comparison is unaffected by fleet runs.
//!
//! When the baseline file does not exist yet (first run on a machine),
//! the current suite is written as the new baseline and the checks
//! pass vacuously; `--write-baseline` forces that refresh.

use std::process::ExitCode;
use sysunc::prob::json::parse;
use sysunc_bench::trend::{
    cache_speedup_shortfall, fleet_failed_requests, fleet_speedup_shortfall,
    merge_serve_suites, serve_mode_summaries, serve_trend_record,
    throughput_regressions,
};

/// Core count at which the full `--fleet-speedup` ratio is armed; below
/// it shards time-slice and only the overhead floor is enforceable.
const FLEET_FULL_CORES: u64 = 4;

struct Args {
    input: String,
    out: String,
    baseline: String,
    write_baseline: bool,
    min_ratio: f64,
    fleet_input: Option<String>,
    fleet_speedup: f64,
    fleet_speedup_floor: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        input: "BENCH_serve.json".into(),
        out: "BENCH_serve_trend.json".into(),
        baseline: "serve.baseline".into(),
        write_baseline: false,
        min_ratio: 0.8,
        fleet_input: None,
        fleet_speedup: 1.7,
        fleet_speedup_floor: 0.15,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--in" => parsed.input = value("--in")?,
            "--out" => parsed.out = value("--out")?,
            "--baseline" => parsed.baseline = value("--baseline")?,
            "--write-baseline" => parsed.write_baseline = true,
            "--min-ratio" => {
                parsed.min_ratio = value("--min-ratio")?
                    .parse()
                    .map_err(|e| format!("--min-ratio: {e}"))?
            }
            "--fleet-in" => parsed.fleet_input = Some(value("--fleet-in")?),
            "--fleet-speedup" => {
                parsed.fleet_speedup = value("--fleet-speedup")?
                    .parse()
                    .map_err(|e| format!("--fleet-speedup: {e}"))?
            }
            "--fleet-speedup-floor" => {
                parsed.fleet_speedup_floor = value("--fleet-speedup-floor")?
                    .parse()
                    .map_err(|e| format!("--fleet-speedup-floor: {e}"))?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("serve_trend: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let text = match std::fs::read_to_string(&args.input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("serve_trend: cannot read {}: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    let mut suite = match parse(&text) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("serve_trend: {} is not valid JSON: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    if let Some(fleet_path) = &args.fleet_input {
        let fleet_text = match std::fs::read_to_string(fleet_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("serve_trend: cannot read {fleet_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let fleet_suite = match parse(&fleet_text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("serve_trend: {fleet_path} is not valid JSON: {e}");
                return ExitCode::FAILURE;
            }
        };
        suite = match merge_serve_suites(&suite, &fleet_suite) {
            Ok(merged) => merged,
            Err(e) => {
                eprintln!("serve_trend: cannot merge {fleet_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    let summaries = match serve_mode_summaries(&suite) {
        Ok(summaries) => summaries,
        Err(e) => {
            eprintln!("serve_trend: {} is not a serve suite: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    let record = match serve_trend_record(&suite) {
        Ok(record) => record,
        Err(e) => {
            eprintln!("serve_trend: cannot fold the suite: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{record}");
    let mut appended = std::fs::read_to_string(&args.out).unwrap_or_default();
    if !appended.is_empty() && !appended.ends_with('\n') {
        appended.push('\n');
    }
    appended.push_str(&record);
    appended.push('\n');
    if let Err(e) = std::fs::write(&args.out, appended) {
        eprintln!("serve_trend: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }

    // The cache gate holds regardless of any baseline.
    if let Some(msg) = cache_speedup_shortfall(&summaries) {
        eprintln!("serve_trend: FAIL: {msg}");
        return ExitCode::FAILURE;
    }

    // Fleet gates, armed only when fleet rows are present: zero failed
    // requests (crash tolerance must be total) and a hardware-aware
    // routed-throughput bar against the single-process cache-hot run.
    let dropped = fleet_failed_requests(&summaries);
    if !dropped.is_empty() {
        for finding in &dropped {
            eprintln!("serve_trend: FAIL: {finding}");
        }
        return ExitCode::FAILURE;
    }
    if let Some(msg) = fleet_speedup_shortfall(
        &summaries,
        FLEET_FULL_CORES,
        args.fleet_speedup,
        args.fleet_speedup_floor,
    ) {
        eprintln!("serve_trend: FAIL: {msg}");
        return ExitCode::FAILURE;
    }

    let baseline_text = match std::fs::read_to_string(&args.baseline) {
        Ok(text) if !args.write_baseline => Some(text),
        _ => None,
    };
    match baseline_text {
        Some(text) => {
            let baseline = match parse(&text).ok().as_ref().map(serve_mode_summaries) {
                Some(Ok(baseline)) => baseline,
                _ => {
                    eprintln!(
                        "serve_trend: {} is not a serve suite; refresh it with \
                         --write-baseline",
                        args.baseline
                    );
                    return ExitCode::FAILURE;
                }
            };
            let findings = throughput_regressions(&summaries, &baseline, args.min_ratio);
            if !findings.is_empty() {
                for finding in &findings {
                    eprintln!("serve_trend: FAIL: {finding}");
                }
                return ExitCode::FAILURE;
            }
            println!(
                "serve_trend: ok — {} mode(s) within {:.0}% of baseline",
                summaries.len(),
                args.min_ratio * 100.0
            );
        }
        None => {
            if let Err(e) = std::fs::write(&args.baseline, &text) {
                eprintln!("serve_trend: cannot write baseline {}: {e}", args.baseline);
                return ExitCode::FAILURE;
            }
            println!("serve_trend: wrote new baseline {}", args.baseline);
        }
    }
    ExitCode::SUCCESS
}
