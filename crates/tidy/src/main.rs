//! `sysunc-tidy` — runs the workspace lint gate.
//!
//! ```text
//! cargo run -p sysunc-tidy -- [--explain [rule]] [workspace-root]
//!
//!   --explain [rule]     print what a rule enforces and why, then exit;
//!                        with no rule, list every rule one per line
//!                        (unknown rules exit 2)
//! ```
//!
//! Prints one `file:line: rule: message` per violation and exits
//! nonzero when any stand. Acknowledged exceptions (the suppression
//! ledger) are counted per rule and summarized, so they stay visible;
//! `tests/tidy_gate.rs` holds those counts equal to a committed table.

use std::path::PathBuf;
use std::process::ExitCode;

use sysunc_tidy::{rules, walk};

/// What `--explain` was asked to do.
enum ExplainMode {
    /// Bare `--explain`: list every rule with its one-line summary.
    All,
    /// `--explain <rule>`: print that rule's full explanation.
    Rule(String),
}

/// Parsed command line.
struct Options {
    root: Option<PathBuf>,
    explain: Option<ExplainMode>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { root: None, explain: None };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        match arg.as_str() {
            "--explain" => {
                // The rule name is optional: a following token that
                // looks like a flag (or nothing at all) means "list
                // every rule".
                opts.explain = Some(match args.get(i) {
                    Some(next) if !next.starts_with('-') => {
                        i += 1;
                        ExplainMode::Rule(next.clone())
                    }
                    _ => ExplainMode::All,
                });
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path if opts.root.is_none() => opts.root = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sysunc-tidy: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(mode) = &opts.explain {
        return match mode {
            ExplainMode::All => {
                let sums = rules::summaries();
                let width = sums.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
                for (name, line) in sums {
                    println!("{name:width$}  {line}");
                }
                ExitCode::SUCCESS
            }
            ExplainMode::Rule(rule) => match rules::explain(rule) {
                Some(text) => {
                    println!("{rule}\n\n{text}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!(
                        "sysunc-tidy: unknown rule `{rule}`; known rules: {}",
                        rules::rule_names().join(", ")
                    );
                    ExitCode::from(2)
                }
            },
        };
    }

    let root = match opts.root {
        Some(p) => p,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("sysunc-tidy: cannot read current dir: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match walk::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("sysunc-tidy: no workspace root found above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let files = match walk::collect(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sysunc-tidy: walk failed under {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    let report = sysunc_tidy::check_files(&files);

    for v in &report.violations {
        println!("{v}");
    }
    if !report.allowed.is_empty() {
        let parts: Vec<String> =
            report.ledger().iter().map(|(r, n)| format!("{r}: {n}")).collect();
        println!(
            "sysunc-tidy: {} acknowledged exception(s) via `tidy: allow` or `#[expect]` ({})",
            report.allowed.len(),
            parts.join(", ")
        );
    }
    println!(
        "sysunc-tidy: scanned {} files, {} violation(s)",
        report.files_scanned,
        report.violations.len()
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
