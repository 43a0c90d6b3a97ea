//! `sysunc-tidy` — runs the workspace lint gate.
//!
//! ```text
//! cargo run -p sysunc-tidy -- [OPTIONS] [workspace-root]
//!
//!   --json               emit the sysunc-tidy/4 JSON findings object
//!   --serial             check files serially (default: parallel)
//!   --baseline <path>    apply a ratchet file (default: <root>/tidy.baseline
//!                        when it exists)
//!   --write-baseline     regenerate the baseline from the standing
//!                        findings (to --baseline or <root>/tidy.baseline)
//!                        instead of gating, then exit
//!   --explain [rule]     print what a rule enforces and why, then exit;
//!                        with no rule, list every rule one per line
//!                        (unknown rules exit 2)
//! ```
//!
//! Prints one `file:line: rule: message` per violation and exits
//! nonzero when any stand. Explicitly allowed violations are counted
//! and summarized so acknowledged exceptions stay visible; baselined
//! violations likewise. See `sysunc_tidy::report` for the JSON schema
//! and the baseline format.

use std::path::PathBuf;
use std::process::ExitCode;

use sysunc_tidy::report::{to_json, Baseline};
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
    json: bool,
    serial: bool,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    explain: Option<ExplainMode>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        serial: false,
        baseline: None,
        write_baseline: false,
        explain: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        match arg.as_str() {
            "--json" => opts.json = true,
            "--serial" => opts.serial = true,
            "--baseline" => {
                let path = args.get(i).ok_or("--baseline needs a path argument")?;
                opts.baseline = Some(PathBuf::from(path));
                i += 1;
            }
            "--write-baseline" => opts.write_baseline = true,
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

    let root = match opts.root.clone() {
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

    let mut report = if opts.serial {
        sysunc_tidy::check_files_serial(&files)
    } else {
        sysunc_tidy::check_files(&files)
    };

    // --write-baseline regenerates the ratchet from the pre-ratchet
    // findings: the freshly written file absorbs exactly what stands
    // today, so the very next gate run is clean with zero stale
    // entries (the round-trip the report tests pin down).
    if opts.write_baseline {
        let path = opts.baseline.clone().unwrap_or_else(|| root.join("tidy.baseline"));
        let baseline = Baseline::from_report(&report);
        if let Err(e) = std::fs::write(&path, baseline.render()) {
            eprintln!("sysunc-tidy: cannot write baseline {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "sysunc-tidy: wrote {} budgeting {} standing finding(s)",
            path.display(),
            report.violations.len()
        );
        return ExitCode::SUCCESS;
    }

    // Apply the ratchet: an explicit --baseline path must exist; the
    // default <root>/tidy.baseline applies only when present.
    let baseline_path = opts.baseline.clone().or_else(|| {
        let default = root.join("tidy.baseline");
        default.exists().then_some(default)
    });
    let mut stale = Vec::new();
    if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sysunc-tidy: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        match Baseline::parse(&text) {
            Ok(b) => stale = b.apply(&mut report),
            Err(e) => {
                eprintln!("sysunc-tidy: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.json {
        println!("{}", to_json(&report));
        return if report.clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    for v in &report.violations {
        println!("{v}");
    }
    if !report.allowed.is_empty() {
        let mut by_rule: Vec<(&str, usize)> = Vec::new();
        for a in &report.allowed {
            match by_rule.iter_mut().find(|(r, _)| *r == a.rule) {
                Some((_, n)) => *n += 1,
                None => by_rule.push((a.rule, 1)),
            }
        }
        let parts: Vec<String> =
            by_rule.iter().map(|(r, n)| format!("{r}: {n}")).collect();
        println!(
            "sysunc-tidy: {} acknowledged exception(s) via `tidy: allow` or `#[expect]` ({})",
            report.allowed.len(),
            parts.join(", ")
        );
    }
    if !report.baselined.is_empty() {
        println!(
            "sysunc-tidy: {} baselined finding(s) absorbed by the ratchet",
            report.baselined.len()
        );
    }
    for s in &stale {
        println!(
            "sysunc-tidy: stale baseline entry {}\t{}\t{} (only {} fired; ratchet down)",
            s.entry.file, s.entry.rule, s.entry.count, s.actual
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
