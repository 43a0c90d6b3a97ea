//! Machine-readable output and the baseline ratchet.
//!
//! ## JSON findings schema (`sysunc-tidy --json`)
//!
//! The gate emits one JSON object, schema id `sysunc-tidy/4`:
//!
//! ```json
//! {
//!   "schema": "sysunc-tidy/4",
//!   "files_scanned": 139,
//!   "clean": true,
//!   "violations": [
//!     {"file": "crates/x/src/lib.rs", "line": 7, "rule": "seed-discipline",
//!      "message": "…"}
//!   ],
//!   "allowed":   [ …same shape… ],
//!   "baselined": [ …same shape… ]
//! }
//! ```
//!
//! Schemas `/2` and `/3` gave each finding a `resolution` member naming
//! the analysis layer that produced it; every rule is a token scan, so
//! `/4` has no such member.
//!
//! `violations` are the findings that fail the gate; `allowed` were
//! acknowledged with `tidy: allow` comments, or are `#[expect]`s of a
//! workspace-table lint listed under the retired rule's name (the
//! suppression ledger); `baselined` were absorbed by the ratchet file.
//! The emitter is hand-rolled (the gate has zero dependencies by
//! design) and the output is asserted parseable by the workspace's own
//! JSON reader (`sysunc::prob::json`) in CI.
//!
//! ## Baseline ratchet (`tidy.baseline`)
//!
//! A baseline lets a newly tightened rule land without first fixing
//! every historical finding, while guaranteeing the count only ever
//! goes down. Each non-comment line budgets standing findings for one
//! file/rule pair, tab-separated:
//!
//! ```text
//! # comment
//! crates/legacy/src/lib.rs<TAB>lock-hygiene<TAB>3
//! ```
//!
//! Up to `count` matching violations are downgraded to `baselined`;
//! any excess still fails the gate. When fewer findings fire than the
//! budget allows, the entry is *stale* and reported so the budget can
//! be ratcheted down — a baseline that only ever grows would be the
//! same silent epistemic debt the `unused-allow` rule exists to
//! prevent.

use std::collections::HashMap;

use crate::{Report, Violation};

/// Escapes `s` as the body of a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn violation_json(v: &Violation) -> String {
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
        escape_json(&v.file.display().to_string()),
        v.line,
        escape_json(v.rule),
        escape_json(&v.message)
    )
}

fn violations_json(vs: &[Violation]) -> String {
    let items: Vec<String> = vs.iter().map(violation_json).collect();
    format!("[{}]", items.join(","))
}

/// Renders a [`Report`] in the `sysunc-tidy/4` JSON findings format.
pub fn to_json(report: &Report) -> String {
    format!(
        "{{\"schema\":\"sysunc-tidy/4\",\"files_scanned\":{},\"clean\":{},\
         \"violations\":{},\"allowed\":{},\"baselined\":{}}}",
        report.files_scanned,
        report.clean(),
        violations_json(&report.violations),
        violations_json(&report.allowed),
        violations_json(&report.baselined)
    )
}

/// A parsed `tidy.baseline` ratchet file: per-(file, rule) budgets of
/// tolerated standing findings.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: Vec<BaselineEntry>,
}

/// One budget line of the baseline file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative path the budget applies to.
    pub file: String,
    /// Rule name the budget applies to.
    pub rule: String,
    /// How many standing findings are absorbed.
    pub count: usize,
}

/// A baseline entry whose budget exceeds the findings that actually
/// fired — the signal to ratchet the budget down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleEntry {
    /// The over-budgeted entry.
    pub entry: BaselineEntry,
    /// Findings that actually fired for the pair.
    pub actual: usize,
}

impl Baseline {
    /// Builds the baseline that budgets exactly the standing
    /// violations of `report`, one entry per (file, rule) pair, sorted
    /// — the generator behind `sysunc-tidy --write-baseline`. Applying
    /// the result to the same report absorbs every violation with no
    /// stale entries.
    pub fn from_report(report: &Report) -> Baseline {
        let mut counts: std::collections::BTreeMap<(String, String), usize> =
            std::collections::BTreeMap::new();
        for v in &report.violations {
            let key = (v.file.display().to_string(), v.rule.to_string());
            *counts.entry(key).or_insert(0) += 1;
        }
        Baseline {
            entries: counts
                .into_iter()
                .map(|((file, rule), count)| BaselineEntry { file, rule, count })
                .collect(),
        }
    }

    /// Renders the tab-separated file format [`Baseline::parse`]
    /// reads, with a header explaining the ratchet contract.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# sysunc-tidy baseline — generated by `sysunc-tidy --write-baseline`.\n\
             # Budgets standing findings per file/rule (file<TAB>rule<TAB>count);\n\
             # counts must only ratchet down. Regenerate instead of hand-editing.\n",
        );
        for e in &self.entries {
            out.push_str(&format!("{}\t{}\t{}\n", e.file, e.rule, e.count));
        }
        out
    }

    /// Parses the tab-separated baseline format. Blank lines and `#`
    /// comments are ignored; malformed lines are errors (a baseline
    /// that silently drops entries would un-ratchet the gate).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (file, rule, count) = match (parts.next(), parts.next(), parts.next()) {
                (Some(f), Some(r), Some(c)) => (f, r, c),
                _ => {
                    return Err(format!(
                        "baseline line {}: expected `file<TAB>rule<TAB>count`, got `{line}`",
                        no + 1
                    ))
                }
            };
            let count: usize = count
                .trim()
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{count}`", no + 1))?;
            entries.push(BaselineEntry {
                file: file.trim().to_string(),
                rule: rule.trim().to_string(),
                count,
            });
        }
        Ok(Baseline { entries })
    }

    /// True when the baseline has no budget lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Applies the ratchet to `report`: up to each entry's budget of
    /// matching standing violations move to `report.baselined`.
    /// Returns the stale entries whose budgets exceed reality.
    pub fn apply(&self, report: &mut Report) -> Vec<StaleEntry> {
        let mut budget: HashMap<(&str, &str), usize> = HashMap::new();
        for e in &self.entries {
            *budget.entry((e.file.as_str(), e.rule.as_str())).or_insert(0) += e.count;
        }
        let mut spent: HashMap<(&str, &str), usize> = HashMap::new();
        let mut standing = Vec::new();
        for v in report.violations.drain(..) {
            let key = (v.file.to_str().unwrap_or(""), v.rule);
            let allowance = budget.get(&key).copied().unwrap_or(0);
            let used = spent.get(&key).copied().unwrap_or(0);
            if used < allowance {
                // Keys borrow from the baseline, not the moved violation.
                let owned_key = self
                    .entries
                    .iter()
                    .find(|e| e.file == key.0 && e.rule == key.1)
                    .map(|e| (e.file.as_str(), e.rule.as_str()));
                if let Some(k) = owned_key {
                    *spent.entry(k).or_insert(0) += 1;
                }
                report.baselined.push(v);
            } else {
                standing.push(v);
            }
        }
        report.violations = standing;
        let mut stale = Vec::new();
        for e in &self.entries {
            let key = (e.file.as_str(), e.rule.as_str());
            let used = spent.get(&key).copied().unwrap_or(0);
            let total = budget.get(&key).copied().unwrap_or(0);
            if used < total {
                stale.push(StaleEntry { entry: e.clone(), actual: used });
            }
        }
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn v(file: &str, line: usize, rule: &'static str, msg: &str) -> Violation {
        Violation { file: PathBuf::from(file), line, rule, message: msg.into() }
    }

    #[test]
    fn json_output_has_schema_counts_and_escaping() {
        let report = Report {
            violations: vec![v("a/b.rs", 3, "lock-hygiene", "found `x.unwrap()` \"quoted\"")],
            allowed: vec![v("a/b.rs", 9, "lock-hygiene", "tab\there")],
            baselined: vec![],
            files_scanned: 2,
        };
        let json = to_json(&report);
        assert!(json.starts_with("{\"schema\":\"sysunc-tidy/4\""));
        assert!(json.contains("\"rule\":\"lock-hygiene\",\"message\":"));
        assert!(json.contains("\"files_scanned\":2"));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("\"baselined\":[]"));
    }

    #[test]
    fn baseline_parses_comments_blanks_and_entries() {
        let text = "# header\n\ncrates/x/src/lib.rs\tlock-hygiene\t2\n";
        let b = Baseline::parse(text).expect("valid");
        assert!(!b.is_empty());
        assert_eq!(
            b,
            Baseline {
                entries: vec![BaselineEntry {
                    file: "crates/x/src/lib.rs".into(),
                    rule: "lock-hygiene".into(),
                    count: 2
                }]
            }
        );
        assert!(Baseline::parse("no tabs here").is_err());
        assert!(Baseline::parse("a\tb\tnot-a-number").is_err());
    }

    #[test]
    fn baseline_absorbs_up_to_budget_and_reports_stale() {
        let b = Baseline::parse("a.rs\tlock-hygiene\t2\nb.rs\tprob-contract\t1\n").expect("valid");
        let mut report = Report {
            violations: vec![
                v("a.rs", 1, "lock-hygiene", "one"),
                v("a.rs", 2, "lock-hygiene", "two"),
                v("a.rs", 3, "lock-hygiene", "three"),
                v("a.rs", 4, "prob-contract", "unrelated rule"),
            ],
            ..Report::default()
        };
        let stale = b.apply(&mut report);
        assert_eq!(report.baselined.len(), 2, "two absorbed by the budget");
        assert_eq!(report.violations.len(), 2, "excess lock-hygiene + unrelated prob-contract stand");
        assert_eq!(stale.len(), 1, "the b.rs budget went unused");
        assert_eq!(stale[0].entry.file, "b.rs");
        assert_eq!(stale[0].actual, 0);
    }

    #[test]
    fn write_then_check_round_trips_clean() {
        // The --write-baseline contract: generating a baseline from a
        // dirty report and applying it to the same findings absorbs
        // everything, with no stale entries left over.
        let mk_report = || Report {
            violations: vec![
                v("crates/x/src/lib.rs", 1, "lock-hygiene", "one"),
                v("crates/x/src/lib.rs", 5, "lock-hygiene", "two"),
                v("crates/y/src/a.rs", 2, "prob-contract", "three"),
            ],
            ..Report::default()
        };
        let baseline = Baseline::from_report(&mk_report());
        let text = baseline.render();
        assert!(text.starts_with('#'), "rendered baseline carries its header");
        assert!(text.contains("crates/x/src/lib.rs\tlock-hygiene\t2\n"));
        assert!(text.contains("crates/y/src/a.rs\tprob-contract\t1\n"));
        let reparsed = Baseline::parse(&text).expect("rendered baseline parses");
        assert_eq!(reparsed, baseline, "render/parse round-trip is exact");
        let mut report = mk_report();
        let stale = reparsed.apply(&mut report);
        assert!(report.violations.is_empty(), "all findings absorbed");
        assert_eq!(report.baselined.len(), 3);
        assert!(stale.is_empty(), "a freshly written baseline is never stale");
        assert!(report.clean());
    }

    #[test]
    fn from_report_of_a_clean_report_is_empty() {
        let baseline = Baseline::from_report(&Report::default());
        assert!(baseline.is_empty());
        let reparsed = Baseline::parse(&baseline.render()).expect("parses");
        assert!(reparsed.is_empty());
    }

    #[test]
    fn empty_baseline_is_a_no_op() {
        let b = Baseline::parse("# only comments\n").expect("valid");
        assert!(b.is_empty());
        let mut report =
            Report { violations: vec![v("a.rs", 1, "lock-hygiene", "x")], ..Report::default() };
        let stale = b.apply(&mut report);
        assert!(stale.is_empty());
        assert_eq!(report.violations.len(), 1);
        assert!(report.baselined.is_empty());
    }
}
