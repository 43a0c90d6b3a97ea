//! Appends one lint-suppression trend record to the bench trajectory.
//!
//! ```text
//! sysunc-tidy --json | tidy_trend [--in FILE] [--out FILE] [--fail-on-regression]
//! ```
//!
//! Reads a `sysunc-tidy/4` findings document from stdin (or `--in
//! FILE`), folds it into a `sysunc-bench-trend/1` record with per-rule
//! allowed/baselined exception counts, and appends it as one JSON line
//! to `--out` (default `BENCH_tidy_trend.json`) unless it equals the
//! trajectory's last line — printing it to stdout either way. A rerun
//! over an unchanged ledger leaves the file untouched.
//!
//! With `--fail-on-regression` the new record is compared against the
//! last line already in the trajectory: any rule whose suppression
//! count rose, or a rise in standing violations, exits nonzero after
//! the record is appended (the trajectory records reality either way).

use std::io::Read;
use std::process::ExitCode;
use sysunc::prob::json::parse;
use sysunc_bench::trend::{appended, suppression_regressions, trend_record};

fn main() -> ExitCode {
    let mut input_path: Option<String> = None;
    let mut out_path = String::from("BENCH_tidy_trend.json");
    let mut fail_on_regression = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--in" => match it.next() {
                Some(v) => input_path = Some(v.clone()),
                None => {
                    eprintln!("tidy_trend: --in needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(v) => out_path = v.clone(),
                None => {
                    eprintln!("tidy_trend: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--fail-on-regression" => fail_on_regression = true,
            other => {
                eprintln!("tidy_trend: bad or incomplete flag '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let text = match input_path {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("tidy_trend: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut buffer = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buffer) {
                eprintln!("tidy_trend: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            buffer
        }
    };

    let report = match parse(&text) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("tidy_trend: input is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record = match trend_record(&report) {
        Ok(record) => record,
        Err(e) => {
            eprintln!("tidy_trend: input is not a sysunc-tidy findings document: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The previous record is the last non-empty line of the existing
    // trajectory, read before this run appends to it.
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let previous = existing.lines().rev().find(|l| !l.trim().is_empty()).map(str::to_string);

    println!("{record}");
    if let Some(trajectory) = appended(&existing, &record) {
        if let Err(e) = std::fs::write(&out_path, trajectory) {
            eprintln!("tidy_trend: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if fail_on_regression {
        if let Some(prev_line) = previous {
            let prev = match parse(&prev_line) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("tidy_trend: last trajectory line is not valid JSON: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let current = match parse(&record) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("tidy_trend: own record is not valid JSON: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match suppression_regressions(&current, &prev) {
                Ok(findings) if findings.is_empty() => {}
                Ok(findings) => {
                    for f in &findings {
                        eprintln!("tidy_trend: REGRESSION: {f}");
                    }
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("tidy_trend: cannot compare against last record: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        // No previous record: this run becomes the baseline.
    }
    ExitCode::SUCCESS
}
