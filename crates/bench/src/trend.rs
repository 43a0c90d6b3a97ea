//! The lint-suppression trend record folded from tidy's findings.
//!
//! Every `// tidy: allow(rule)` comment, every `#[expect]` of a
//! workspace-table lint (listed by tidy under the name of the rule the
//! lint replaced) and every baseline budget is acknowledged epistemic
//! debt. A `sysunc-tidy/4` findings document folds into a per-rule
//! record (`sysunc-bench-trend/1`); the counts should only ratchet
//! down, and [`suppression_regressions`] is the tripwire a rising line
//! trips.

use std::collections::BTreeMap;
use sysunc::prob::json::writer::JsonWriter;
use sysunc::prob::json::{Json, JsonError};

/// Counts the entries of one findings list (`allowed`, `baselined`, …)
/// per rule, sorted by rule name.
///
/// # Errors
///
/// Returns [`JsonError`] when `key` is missing or not an array of
/// finding objects.
pub fn count_by_rule(report: &Json, key: &str) -> Result<Vec<(String, u64)>, JsonError> {
    let list = report
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError::decode(format!("report lacks a '{key}' array")))?;
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for item in list {
        let rule = item
            .get("rule")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::decode(format!("'{key}' entry lacks a rule")))?;
        *counts.entry(rule.to_string()).or_insert(0) += 1;
    }
    Ok(counts.into_iter().collect())
}

/// Renders one `sysunc-bench-trend/1` record (a single JSON line) from
/// a parsed `sysunc-tidy/4` findings document.
///
/// # Errors
///
/// Returns [`JsonError`] when the document does not have the
/// `sysunc-tidy/4` shape.
pub fn trend_record(report: &Json) -> Result<String, JsonError> {
    let schema = report.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "sysunc-tidy/4" {
        return Err(JsonError::decode(format!(
            "expected a sysunc-tidy/4 document, got schema '{schema}'"
        )));
    }
    let files_scanned = report
        .get("files_scanned")
        .and_then(Json::as_u64)
        .ok_or_else(|| JsonError::decode("report lacks files_scanned"))?;
    let clean = report
        .get("clean")
        .and_then(Json::as_bool)
        .ok_or_else(|| JsonError::decode("report lacks clean"))?;
    let allowed = count_by_rule(report, "allowed")?;
    let baselined = count_by_rule(report, "baselined")?;
    let violations = report
        .get("violations")
        .and_then(Json::as_arr)
        .map(|a| a.len() as u64)
        .ok_or_else(|| JsonError::decode("report lacks violations"))?;

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("sysunc-bench-trend/1");
    w.key("files_scanned").u64(files_scanned);
    w.key("clean").bool(clean);
    w.key("violations").u64(violations);
    let total = |counts: &[(String, u64)]| counts.iter().map(|(_, n)| n).sum::<u64>();
    w.key("allowed_total").u64(total(&allowed));
    w.key("allowed_by_rule").begin_object();
    for (rule, n) in &allowed {
        w.key(rule).u64(*n);
    }
    w.end_object();
    w.key("baselined_total").u64(total(&baselined));
    w.key("baselined_by_rule").begin_object();
    for (rule, n) in &baselined {
        w.key(rule).u64(*n);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// The per-rule suppression counts (allowed + baselined) of one
/// `sysunc-bench-trend/1` record, summed across both ledgers.
///
/// # Errors
///
/// Returns [`JsonError`] when the record has the wrong schema or lacks
/// the per-rule count objects.
pub fn suppressions_by_rule(record: &Json) -> Result<BTreeMap<String, u64>, JsonError> {
    let schema = record.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "sysunc-bench-trend/1" {
        return Err(JsonError::decode(format!(
            "expected a sysunc-bench-trend/1 record, got schema '{schema}'"
        )));
    }
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for key in ["allowed_by_rule", "baselined_by_rule"] {
        let Some(Json::Obj(by_rule)) = record.get(key) else {
            return Err(JsonError::decode(format!("record lacks a '{key}' object")));
        };
        for (rule, n) in by_rule {
            let n = n
                .as_u64()
                .ok_or_else(|| JsonError::decode(format!("'{key}' count for '{rule}' is not a count")))?;
            *counts.entry(rule.clone()).or_insert(0) += n;
        }
    }
    Ok(counts)
}

/// Compares a fresh trend record against the previous one: one message
/// per rule whose suppression count (allowed + baselined) rose, plus
/// one when the standing-violation total rose. Empty means the ratchet
/// held. New rules start from an implicit zero, so the very first
/// suppression of a new rule is itself a regression — by design: debt
/// is taken on explicitly, not discovered later in the trajectory.
///
/// # Errors
///
/// Returns [`JsonError`] when either record does not have the
/// `sysunc-bench-trend/1` shape.
pub fn suppression_regressions(
    current: &Json,
    previous: &Json,
) -> Result<Vec<String>, JsonError> {
    let now = suppressions_by_rule(current)?;
    let before = suppressions_by_rule(previous)?;
    let mut findings = Vec::new();
    for (rule, n) in &now {
        let was = before.get(rule).copied().unwrap_or(0);
        if *n > was {
            findings.push(format!(
                "rule '{rule}' suppressions rose {was} -> {n}; the exception \
                 ledger must only ratchet down"
            ));
        }
    }
    let total = |r: &Json| r.get("violations").and_then(Json::as_u64).unwrap_or(0);
    let (now_v, before_v) = (total(current), total(previous));
    if now_v > before_v {
        findings.push(format!(
            "standing violations rose {before_v} -> {now_v}"
        ));
    }
    Ok(findings)
}

/// The trajectory `existing` with `record` appended as its last line,
/// or `None` when `record` already is the last non-empty line: a rerun
/// over an unchanged ledger leaves the trajectory as it is.
pub fn appended(existing: &str, record: &str) -> Option<String> {
    if existing.lines().rev().find(|l| !l.trim().is_empty()) == Some(record) {
        return None;
    }
    let mut out = existing.to_string();
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(record);
    out.push('\n');
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc::prob::json::parse;

    const SAMPLE: &str = r#"{
        "schema": "sysunc-tidy/4",
        "files_scanned": 12,
        "clean": true,
        "violations": [],
        "allowed": [
            {"file": "a.rs", "line": 1, "rule": "panic", "message": "m"},
            {"file": "b.rs", "line": 2, "rule": "panic", "message": "m"},
            {"file": "c.rs", "line": 3, "rule": "seed-discipline", "message": "m"}
        ],
        "baselined": [
            {"file": "d.rs", "line": 4, "rule": "doc", "message": "m"}
        ]
    }"#;

    #[test]
    fn counts_group_and_sort_by_rule() {
        let report = parse(SAMPLE).expect("parses");
        let counts = count_by_rule(&report, "allowed").expect("counts");
        assert_eq!(
            counts,
            vec![("panic".to_string(), 2), ("seed-discipline".to_string(), 1)]
        );
    }

    #[test]
    fn trend_record_summarizes_the_findings_document() {
        let report = parse(SAMPLE).expect("parses");
        let record = trend_record(&report).expect("renders");
        let v = parse(&record).expect("record parses back");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("sysunc-bench-trend/1")
        );
        assert_eq!(v.get("allowed_total").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("baselined_total").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("allowed_by_rule").and_then(|j| j.get("panic")).and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(v.get("violations").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("clean").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn foreign_documents_are_rejected() {
        let report = parse(r#"{"schema":"other/9"}"#).expect("parses");
        assert!(trend_record(&report).is_err());
        let report = parse(r#"{"schema":"sysunc-tidy/4"}"#).expect("parses");
        assert!(trend_record(&report).is_err(), "missing members must error");
        let older = parse(&SAMPLE.replace("sysunc-tidy/4", "sysunc-tidy/3")).expect("parses");
        assert!(trend_record(&older).is_err(), "only the schema tidy emits is read");
    }

    #[test]
    fn suppression_regressions_trip_on_rising_counts_only() {
        let record = |panic: u64, doc: u64, violations: u64| {
            parse(&format!(
                r#"{{"schema":"sysunc-bench-trend/1","files_scanned":12,
                    "clean":true,"violations":{violations},
                    "allowed_total":{panic},"allowed_by_rule":{{"panic":{panic}}},
                    "baselined_total":{doc},"baselined_by_rule":{{"doc":{doc}}}}}"#
            ))
            .expect("record parses")
        };
        let base = record(2, 1, 0);
        // Flat or falling counts hold the ratchet.
        assert!(suppression_regressions(&record(2, 1, 0), &base).expect("folds").is_empty());
        assert!(suppression_regressions(&record(1, 0, 0), &base).expect("folds").is_empty());
        // A rising per-rule count trips, naming the rule.
        let findings = suppression_regressions(&record(3, 1, 0), &base).expect("folds");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("'panic'"), "{findings:?}");
        assert!(findings[0].contains("2 -> 3"), "{findings:?}");
        // Rising standing violations trip too.
        let findings = suppression_regressions(&record(2, 1, 4), &base).expect("folds");
        assert!(findings.iter().any(|f| f.contains("violations rose 0 -> 4")), "{findings:?}");
        // A record of the wrong schema is an error, not a silent pass.
        let foreign = parse(r#"{"schema":"other/9"}"#).expect("parses");
        assert!(suppression_regressions(&foreign, &base).is_err());
    }

    #[test]
    fn a_record_equal_to_the_last_line_is_not_appended() {
        let (a, b) = (r#"{"n":1}"#, r#"{"n":2}"#);
        assert_eq!(appended("", a).as_deref(), Some("{\"n\":1}\n"), "first record");
        let one = format!("{a}\n");
        assert_eq!(appended(&one, a), None, "a rerun over the same ledger");
        assert_eq!(appended(&format!("{a}\n\n"), a), None, "trailing blank lines");
        assert_eq!(appended(&one, b), Some(format!("{a}\n{b}\n")), "a change");
        assert_eq!(appended(a, b), Some(format!("{a}\n{b}\n")), "no final newline");
        // Only the last line counts: returning to an older record appends.
        assert_eq!(appended(&format!("{a}\n{b}\n"), a), Some(format!("{a}\n{b}\n{a}\n")));
    }
}
