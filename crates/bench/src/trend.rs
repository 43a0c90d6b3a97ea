//! Trend records folded from the repo's machine-readable reports.
//!
//! Two trajectories live here:
//!
//! - **Lint suppressions** — every `// tidy: allow(rule)` comment,
//!   every `#[expect]` of a workspace-table lint (listed by tidy under
//!   the name of the rule the lint replaced) and every baseline budget
//!   is acknowledged epistemic debt. A
//!   `sysunc-tidy/3` findings document (the older `/1` and `/2` are
//!   still accepted — `/1` merely lacks the per-finding `resolution`
//!   field, `/2` the `cfg` resolution and the CFG-backed rules) folds
//!   into a per-rule record (`sysunc-bench-trend/1`); the counts
//!   should only ratchet down, and [`suppression_regressions`] is the
//!   tripwire a rising line trips.
//! - **Serving throughput** — a `sysunc-bench-serve/2` loadgen suite
//!   folds into a per-mode record (`sysunc-bench-serve-trend/1`), and
//!   [`throughput_regressions`] is the CI tripwire comparing a run
//!   against a committed baseline, and [`cache_speedup_shortfall`]
//!   checks the cache from the run's own hit counts.
//! - **Engine throughput** — a `sysunc-bench-engine/1` document (the
//!   `engine_bench` binary: samples/sec per engine × model, chunked vs
//!   scalar) folds into a `sysunc-bench-engine-trend/1` record;
//!   [`engine_regressions`] compares chunked throughput against a
//!   committed baseline and [`chunked_speedup_shortfall`] enforces that
//!   the chunked kernels keep beating the scalar reference path.

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
/// a parsed `sysunc-tidy/3` (or legacy `/1`, `/2`) findings document.
///
/// # Errors
///
/// Returns [`JsonError`] when the document does not have the
/// `sysunc-tidy/1`, `/2` or `/3` shape.
pub fn trend_record(report: &Json) -> Result<String, JsonError> {
    let schema = report.get("schema").and_then(Json::as_str).unwrap_or("");
    if !matches!(schema, "sysunc-tidy/1" | "sysunc-tidy/2" | "sysunc-tidy/3") {
        return Err(JsonError::decode(format!(
            "expected a sysunc-tidy/1, /2 or /3 document, got schema '{schema}'"
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

/// One mode's headline numbers pulled out of a `sysunc-bench-serve/2`
/// suite document.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSummary {
    /// The mode name (`cold`, `cache-hot`, `batch`).
    pub mode: String,
    /// Completed propagation jobs per second.
    pub throughput_rps: f64,
    /// Median per-HTTP-call latency in microseconds.
    pub p50_micros: u64,
    /// Tail per-HTTP-call latency in microseconds.
    pub p99_micros: u64,
    /// Jobs answered successfully.
    pub ok: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Answered jobs the server served from its response cache (`0`
    /// for documents predating the field).
    pub cache_hits: u64,
    /// Concurrent clients that drove the mode.
    pub clients: u64,
    /// Distinct seeds the cache-hot mode cycled through (`0` for
    /// documents predating the field).
    pub hot_seeds: u64,
    /// Usable cores on the host the run measured (`0` for documents
    /// predating the field) — fleet speedup gates are judged against
    /// the hardware the numbers came from.
    pub cores: u64,
}

/// Extracts the per-mode summaries from a `sysunc-bench-serve/2` suite
/// document, in the document's mode order.
///
/// # Errors
///
/// Returns [`JsonError`] when the document has the wrong schema or a
/// mode entry lacks the expected members.
pub fn serve_mode_summaries(suite: &Json) -> Result<Vec<ModeSummary>, JsonError> {
    let schema = suite.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "sysunc-bench-serve/2" {
        return Err(JsonError::decode(format!(
            "expected a sysunc-bench-serve/2 document, got schema '{schema}'"
        )));
    }
    let Some(Json::Obj(modes)) = suite.get("modes") else {
        return Err(JsonError::decode("suite lacks a 'modes' object"));
    };
    let mut summaries = Vec::with_capacity(modes.len());
    for (mode, doc) in modes {
        let member = |key: &str| {
            doc.get(key).ok_or_else(|| {
                JsonError::decode(format!("mode '{mode}' lacks '{key}'"))
            })
        };
        let latency = member("latency_micros")?;
        let micros = |key: &str| {
            latency.get(key).and_then(Json::as_u64).ok_or_else(|| {
                JsonError::decode(format!("mode '{mode}' lacks latency '{key}'"))
            })
        };
        summaries.push(ModeSummary {
            mode: mode.clone(),
            throughput_rps: member("throughput_rps")?.as_f64().ok_or_else(|| {
                JsonError::decode(format!("mode '{mode}' throughput is not a number"))
            })?,
            p50_micros: micros("p50")?,
            p99_micros: micros("p99")?,
            ok: member("ok")?.as_u64().unwrap_or(0),
            failed: member("failed")?.as_u64().unwrap_or(0),
            cache_hits: doc.get("cache_hits").and_then(Json::as_u64).unwrap_or(0),
            clients: doc.get("clients").and_then(Json::as_u64).unwrap_or(0),
            hot_seeds: doc.get("hot_seeds").and_then(Json::as_u64).unwrap_or(0),
            cores: doc.get("cores").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Ok(summaries)
}

/// Merges the mode entries of `extra` into `base` (both
/// `sysunc-bench-serve/2` suites) — how a fleet run's `fleet-*` rows
/// join the single-process rows in one document for trend recording
/// and gating. Duplicate mode keys keep `base`'s entry.
///
/// # Errors
///
/// Returns [`JsonError`] when either document lacks the suite schema
/// or its `modes` object.
pub fn merge_serve_suites(base: &Json, extra: &Json) -> Result<Json, JsonError> {
    let modes_of = |doc: &Json, who: &str| -> Result<Vec<(String, Json)>, JsonError> {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != "sysunc-bench-serve/2" {
            return Err(JsonError::decode(format!(
                "{who} suite has schema '{schema}', expected sysunc-bench-serve/2"
            )));
        }
        match doc.get("modes") {
            Some(Json::Obj(modes)) => Ok(modes.clone()),
            _ => Err(JsonError::decode(format!("{who} suite lacks a 'modes' object"))),
        }
    };
    let mut modes = modes_of(base, "base")?;
    for (key, doc) in modes_of(extra, "extra")? {
        if !modes.iter().any(|(k, _)| *k == key) {
            modes.push((key, doc));
        }
    }
    Ok(Json::Obj(vec![
        ("schema".into(), Json::Str("sysunc-bench-serve/2".into())),
        ("modes".into(), Json::Obj(modes)),
    ]))
}

/// Renders one `sysunc-bench-serve-trend/1` record (a single JSON
/// line) from a parsed `sysunc-bench-serve/2` suite document: the
/// per-mode throughput and latency headline, appended over time.
///
/// # Errors
///
/// As in [`serve_mode_summaries`], plus writer errors for non-finite
/// throughputs.
pub fn serve_trend_record(suite: &Json) -> Result<String, JsonError> {
    let summaries = serve_mode_summaries(suite)?;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("sysunc-bench-serve-trend/1");
    w.key("modes").begin_object();
    for s in &summaries {
        w.key(&s.mode).begin_object();
        w.key("throughput_rps").f64(s.throughput_rps);
        w.key("p50_micros").u64(s.p50_micros);
        w.key("p99_micros").u64(s.p99_micros);
        w.key("ok").u64(s.ok);
        w.key("failed").u64(s.failed);
        w.key("cache_hits").u64(s.cache_hits);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Compares a run against a baseline: one message per mode whose
/// throughput fell below `min_ratio` of the baseline's (or that
/// disappeared entirely). Empty means no regression.
pub fn throughput_regressions(
    current: &[ModeSummary],
    baseline: &[ModeSummary],
    min_ratio: f64,
) -> Vec<String> {
    let mut findings = Vec::new();
    for base in baseline {
        match current.iter().find(|s| s.mode == base.mode) {
            None => findings.push(format!("mode '{}' missing from this run", base.mode)),
            Some(now) => {
                let floor = base.throughput_rps * min_ratio;
                if now.throughput_rps < floor {
                    findings.push(format!(
                        "mode '{}' throughput {:.1} jobs/s fell below {:.1} \
                         ({:.0}% of baseline {:.1})",
                        base.mode,
                        now.throughput_rps,
                        floor,
                        min_ratio * 100.0,
                        base.throughput_rps
                    ));
                }
            }
        }
    }
    findings
}

/// Checks that the response cache works, from the server's own
/// `X-Sysunc-Cache` verdicts: the cache-hot mode may miss at most
/// `clients × hot_seeds` jobs (each client misses each hot key at most
/// once, before the first answer for it is cached), and its median
/// latency must beat cold's. A throughput ratio is not used: it tracks
/// engine cost, not the cache. `None` when satisfied or when the run
/// lacks either mode.
pub fn cache_speedup_shortfall(current: &[ModeSummary]) -> Option<String> {
    let cold = current.iter().find(|s| s.mode == "cold")?;
    let hot = current.iter().find(|s| s.mode == "cache-hot")?;
    let misses = hot.ok.saturating_sub(hot.cache_hits);
    let allowed = hot.clients.saturating_mul(hot.hot_seeds);
    if misses > allowed {
        return Some(format!(
            "cache-hot missed the cache on {misses} of {} jobs; at most {allowed} \
             ({} clients x {} hot seeds) may miss before every hot key is cached",
            hot.ok, hot.clients, hot.hot_seeds
        ));
    }
    if hot.p50_micros >= cold.p50_micros {
        return Some(format!(
            "cache-hot p50 {} us is not below cold p50 {} us; cache hits must \
             answer faster than fresh runs",
            hot.p50_micros, cold.p50_micros
        ));
    }
    None
}

/// The fleet crash-tolerance gate: every `fleet-*` mode must report
/// zero failed jobs. The fleet loadgen run includes a forced child
/// crash mid-run, so any failure means the router dropped a request
/// instead of riding out the restart. One message per offending mode;
/// empty means the gate holds (including when no fleet rows exist).
pub fn fleet_failed_requests(current: &[ModeSummary]) -> Vec<String> {
    current
        .iter()
        .filter(|s| s.mode.starts_with("fleet-") && s.failed > 0)
        .map(|s| {
            format!(
                "fleet mode '{}' dropped {} request(s); crash tolerance demands \
                 zero failures across a forced shard restart",
                s.mode, s.failed
            )
        })
        .collect()
}

/// The hardware-aware fleet speedup gate: `fleet-cache-hot` throughput
/// against single-process `cache-hot`. On a host with at least
/// `full_cores` usable cores the shards run in parallel and the fleet
/// must reach `full_ratio` (the ~linear cache-hot scaling claim);
/// below that the shards time-slice the same cores, a speedup is
/// physically unavailable, and only the overhead floor `floor_ratio`
/// is enforced — routing must not swallow most of the throughput. The
/// core count is read from the fleet row itself (recorded at measure
/// time), so gating a result judges the hardware it ran on. `None`
/// when either mode is absent or the applicable bar is met.
pub fn fleet_speedup_shortfall(
    current: &[ModeSummary],
    full_cores: u64,
    full_ratio: f64,
    floor_ratio: f64,
) -> Option<String> {
    let hot = current.iter().find(|s| s.mode == "cache-hot")?;
    let fleet = current.iter().find(|s| s.mode == "fleet-cache-hot")?;
    let (bar, regime) = if fleet.cores >= full_cores {
        (full_ratio, format!("{} cores (parallel regime)", fleet.cores))
    } else {
        (
            floor_ratio,
            format!("{} core(s) (time-sliced regime, overhead floor)", fleet.cores.max(1)),
        )
    };
    if hot.throughput_rps > 0.0 && fleet.throughput_rps < hot.throughput_rps * bar {
        return Some(format!(
            "fleet-cache-hot throughput {:.1} jobs/s is {:.2}x single-process \
             cache-hot ({:.1} jobs/s); expected at least {bar:.2}x on {regime}",
            fleet.throughput_rps,
            fleet.throughput_rps / hot.throughput_rps,
            hot.throughput_rps,
        ));
    }
    None
}

/// One engine × model row of a `sysunc-bench-engine/1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSummary {
    /// The engine name (catalog name, e.g. `monte-carlo`).
    pub engine: String,
    /// The benchmark model (e.g. `orbital-period`).
    pub model: String,
    /// Scalar reference-path throughput in samples per second.
    pub scalar_sps: f64,
    /// Chunked-kernel throughput in samples per second.
    pub chunked_sps: f64,
    /// `chunked_sps / scalar_sps` (1.0 for engines without a distinct
    /// chunked path).
    pub speedup: f64,
}

impl EngineSummary {
    /// The `engine/model` key rows are matched on across runs.
    pub fn key(&self) -> String {
        format!("{}/{}", self.engine, self.model)
    }
}

/// Extracts the per-row summaries from a `sysunc-bench-engine/1`
/// document, in document order.
///
/// # Errors
///
/// Returns [`JsonError`] when the document has the wrong schema or an
/// entry lacks the expected members.
pub fn engine_summaries(doc: &Json) -> Result<Vec<EngineSummary>, JsonError> {
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "sysunc-bench-engine/1" {
        return Err(JsonError::decode(format!(
            "expected a sysunc-bench-engine/1 document, got schema '{schema}'"
        )));
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError::decode("document lacks an 'entries' array"))?;
    let mut summaries = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let text = |key: &str| {
            entry.get(key).and_then(Json::as_str).map(str::to_string).ok_or_else(|| {
                JsonError::decode(format!("entry {i} lacks '{key}'"))
            })
        };
        let num = |key: &str| {
            entry.get(key).and_then(Json::as_f64).ok_or_else(|| {
                JsonError::decode(format!("entry {i} lacks a numeric '{key}'"))
            })
        };
        summaries.push(EngineSummary {
            engine: text("engine")?,
            model: text("model")?,
            scalar_sps: num("scalar_sps")?,
            chunked_sps: num("chunked_sps")?,
            speedup: num("speedup")?,
        });
    }
    Ok(summaries)
}

/// Renders one `sysunc-bench-engine-trend/1` record (a single JSON
/// line) from a parsed `sysunc-bench-engine/1` document: throughput and
/// speedup per `engine/model` key, appended over time.
///
/// # Errors
///
/// As in [`engine_summaries`], plus writer errors for non-finite
/// throughputs.
pub fn engine_trend_record(doc: &Json) -> Result<String, JsonError> {
    let summaries = engine_summaries(doc)?;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string("sysunc-bench-engine-trend/1");
    w.key("entries").begin_object();
    for s in &summaries {
        w.key(&s.key()).begin_object();
        w.key("scalar_sps").f64(s.scalar_sps);
        w.key("chunked_sps").f64(s.chunked_sps);
        w.key("speedup").f64(s.speedup);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Compares a run against a baseline: one message per `engine/model`
/// row whose chunked throughput fell below `min_ratio` of the
/// baseline's (or that disappeared entirely). Empty means no
/// regression.
pub fn engine_regressions(
    current: &[EngineSummary],
    baseline: &[EngineSummary],
    min_ratio: f64,
) -> Vec<String> {
    let mut findings = Vec::new();
    for base in baseline {
        match current.iter().find(|s| s.key() == base.key()) {
            None => findings.push(format!("row '{}' missing from this run", base.key())),
            Some(now) => {
                let floor = base.chunked_sps * min_ratio;
                if now.chunked_sps < floor {
                    findings.push(format!(
                        "row '{}' throughput {:.0} samples/s fell below {:.0} \
                         ({:.0}% of baseline {:.0})",
                        base.key(),
                        now.chunked_sps,
                        floor,
                        min_ratio * 100.0,
                        base.chunked_sps
                    ));
                }
            }
        }
    }
    findings
}

/// Checks the chunked kernels' value proposition: every row of the
/// named engines must report at least `min_speedup` over the scalar
/// path. Empty when satisfied (or when no named engine has rows).
pub fn chunked_speedup_shortfall(
    current: &[EngineSummary],
    engines: &[&str],
    min_speedup: f64,
) -> Vec<String> {
    current
        .iter()
        .filter(|s| engines.contains(&s.engine.as_str()) && s.speedup < min_speedup)
        .map(|s| {
            format!(
                "row '{}' chunked speedup {:.2}x is below the required {min_speedup:.1}x \
                 ({:.0} vs {:.0} samples/s)",
                s.key(),
                s.speedup,
                s.chunked_sps,
                s.scalar_sps
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc::prob::json::parse;

    const SAMPLE: &str = r#"{
        "schema": "sysunc-tidy/3",
        "files_scanned": 12,
        "clean": true,
        "violations": [],
        "allowed": [
            {"file": "a.rs", "line": 1, "rule": "panic", "resolution": "token", "message": "m"},
            {"file": "b.rs", "line": 2, "rule": "panic", "resolution": "token", "message": "m"},
            {"file": "c.rs", "line": 3, "rule": "seed-discipline", "resolution": "token", "message": "m"}
        ],
        "baselined": [
            {"file": "d.rs", "line": 4, "rule": "doc", "resolution": "token", "message": "m"}
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
        let report = parse(r#"{"schema":"sysunc-tidy/3"}"#).expect("parses");
        assert!(trend_record(&report).is_err(), "missing members must error");
    }

    #[test]
    fn legacy_tidy_documents_still_fold() {
        // Pre-resolution /1 documents lack the `resolution` member and
        // /2 documents lack the CFG-backed rules; the fold never looked
        // at either, so both keep working.
        for legacy_schema in ["sysunc-tidy/1", "sysunc-tidy/2"] {
            let legacy = SAMPLE.replace("sysunc-tidy/3", legacy_schema);
            let report = parse(&legacy).expect("parses");
            let record = trend_record(&report).expect("legacy schema accepted");
            let v = parse(&record).expect("record parses back");
            assert_eq!(v.get("allowed_total").and_then(Json::as_u64), Some(3));
        }
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

    fn serve_suite(cold_rps: f64, hot_rps: f64) -> Json {
        let doc = |rps: f64| {
            format!(
                r#"{{"schema":"sysunc-bench-serve/1","ok":10,"failed":0,
                    "throughput_rps":{rps},
                    "latency_micros":{{"p50":100,"p99":400}}}}"#
            )
        };
        parse(&format!(
            r#"{{"schema":"sysunc-bench-serve/2","modes":{{
                "cold":{cold},"cache-hot":{hot}}}}}"#,
            cold = doc(cold_rps),
            hot = doc(hot_rps)
        ))
        .expect("suite parses")
    }

    #[test]
    fn serve_summaries_and_trend_record_fold_the_suite() {
        let suite = serve_suite(50.0, 500.0);
        let summaries = serve_mode_summaries(&suite).expect("folds");
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].mode, "cold");
        assert!((summaries[0].throughput_rps - 50.0).abs() < 1e-9);
        assert_eq!(summaries[1].p99_micros, 400);

        let record = serve_trend_record(&suite).expect("renders");
        let v = parse(&record).expect("record parses back");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("sysunc-bench-serve-trend/1")
        );
        let hot = v.get("modes").and_then(|m| m.get("cache-hot")).expect("mode");
        assert_eq!(hot.get("p50_micros").and_then(Json::as_u64), Some(100));
        assert!(hot.get("throughput_rps").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn serve_fold_rejects_foreign_and_incomplete_documents() {
        let foreign = parse(r#"{"schema":"sysunc-bench-serve/1"}"#).expect("parses");
        assert!(serve_mode_summaries(&foreign).is_err());
        let incomplete = parse(
            r#"{"schema":"sysunc-bench-serve/2","modes":{"cold":{"ok":1}}}"#,
        )
        .expect("parses");
        assert!(serve_mode_summaries(&incomplete).is_err());
    }

    #[test]
    fn throughput_regressions_flag_drops_and_missing_modes() {
        let baseline = serve_mode_summaries(&serve_suite(100.0, 800.0)).expect("folds");
        let healthy = serve_mode_summaries(&serve_suite(90.0, 700.0)).expect("folds");
        assert!(throughput_regressions(&healthy, &baseline, 0.8).is_empty());

        let regressed = serve_mode_summaries(&serve_suite(50.0, 700.0)).expect("folds");
        let findings = throughput_regressions(&regressed, &baseline, 0.8);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("'cold'"), "{findings:?}");

        let findings = throughput_regressions(&healthy[..1], &baseline, 0.8);
        assert!(findings.iter().any(|f| f.contains("missing")), "{findings:?}");
    }

    fn fleet_suite(hot_rps: f64, fleet_rps: f64, cores: u64, failed: u64) -> Json {
        let doc = |rps: f64, failed: u64| {
            format!(
                r#"{{"schema":"sysunc-bench-serve/1","ok":10,"failed":{failed},
                    "cores":{cores},"throughput_rps":{rps},
                    "latency_micros":{{"p50":100,"p99":400}}}}"#
            )
        };
        parse(&format!(
            r#"{{"schema":"sysunc-bench-serve/2","modes":{{
                "cache-hot":{hot},"fleet-cache-hot":{fleet}}}}}"#,
            hot = doc(hot_rps, 0),
            fleet = doc(fleet_rps, failed)
        ))
        .expect("suite parses")
    }

    #[test]
    fn merged_suites_carry_both_row_sets() {
        let merged = merge_serve_suites(
            &serve_suite(50.0, 500.0),
            &fleet_suite(500.0, 900.0, 8, 0),
        )
        .expect("merges");
        let summaries = serve_mode_summaries(&merged).expect("folds");
        let modes: Vec<&str> = summaries.iter().map(|s| s.mode.as_str()).collect();
        assert_eq!(modes, ["cold", "cache-hot", "fleet-cache-hot"]);
        // Duplicate keys keep the base entry.
        assert!(
            (summaries[1].throughput_rps - 500.0).abs() < 1e-9,
            "base cache-hot row wins over the extra suite's copy"
        );
        // The merged document feeds the trend record directly.
        let record = serve_trend_record(&merged).expect("renders");
        assert!(record.contains("fleet-cache-hot"), "{record}");
        // Foreign schemas are refused.
        let foreign = parse(r#"{"schema":"other/9"}"#).expect("parses");
        assert!(merge_serve_suites(&serve_suite(1.0, 1.0), &foreign).is_err());
    }

    #[test]
    fn fleet_failure_gate_demands_zero_dropped_requests() {
        let clean =
            serve_mode_summaries(&fleet_suite(500.0, 900.0, 8, 0)).expect("folds");
        assert!(fleet_failed_requests(&clean).is_empty());
        let dropped =
            serve_mode_summaries(&fleet_suite(500.0, 900.0, 8, 3)).expect("folds");
        let findings = fleet_failed_requests(&dropped);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("fleet-cache-hot"), "{findings:?}");
        assert!(findings[0].contains("3 request(s)"), "{findings:?}");
        // Single-process failures are the baseline gates' business.
        let single = serve_mode_summaries(&serve_suite(50.0, 500.0)).expect("folds");
        assert!(fleet_failed_requests(&single).is_empty());
    }

    #[test]
    fn fleet_speedup_gate_is_hardware_aware() {
        // Parallel regime (cores >= full_cores): the full ratio applies.
        let scaled = serve_mode_summaries(&fleet_suite(500.0, 900.0, 8, 0)).expect("f");
        assert!(fleet_speedup_shortfall(&scaled, 4, 1.7, 0.35).is_none());
        let flat = serve_mode_summaries(&fleet_suite(500.0, 600.0, 8, 0)).expect("f");
        let msg = fleet_speedup_shortfall(&flat, 4, 1.7, 0.35).expect("shortfall");
        assert!(msg.contains("1.20x"), "{msg}");
        assert!(msg.contains("parallel regime"), "{msg}");
        // Time-sliced regime (1 core): only the overhead floor applies.
        let sliced = serve_mode_summaries(&fleet_suite(500.0, 250.0, 1, 0)).expect("f");
        assert!(
            fleet_speedup_shortfall(&sliced, 4, 1.7, 0.35).is_none(),
            "0.5x on one core is above the overhead floor"
        );
        let choked = serve_mode_summaries(&fleet_suite(500.0, 100.0, 1, 0)).expect("f");
        let msg = fleet_speedup_shortfall(&choked, 4, 1.7, 0.35).expect("shortfall");
        assert!(msg.contains("overhead floor"), "{msg}");
        // No fleet rows → no verdict.
        let single = serve_mode_summaries(&serve_suite(50.0, 500.0)).expect("folds");
        assert!(fleet_speedup_shortfall(&single, 4, 1.7, 0.35).is_none());
    }

    fn engine_doc(mc_chunked: f64, mc_speedup: f64) -> Json {
        parse(&format!(
            r#"{{"schema":"sysunc-bench-engine/1","budget":65536,"entries":[
                {{"engine":"monte-carlo","model":"orbital-period",
                  "scalar_sps":1000000.0,"chunked_sps":{mc_chunked},"speedup":{mc_speedup}}},
                {{"engine":"evidential","model":"orbital-period",
                  "scalar_sps":50000.0,"chunked_sps":50000.0,"speedup":1.0}}]}}"#
        ))
        .expect("doc parses")
    }

    #[test]
    fn engine_summaries_and_trend_record_fold_the_document() {
        let doc = engine_doc(4_000_000.0, 4.0);
        let summaries = engine_summaries(&doc).expect("folds");
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].key(), "monte-carlo/orbital-period");
        assert!((summaries[0].speedup - 4.0).abs() < 1e-9);

        let record = engine_trend_record(&doc).expect("renders");
        let v = parse(&record).expect("record parses back");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("sysunc-bench-engine-trend/1")
        );
        let row = v
            .get("entries")
            .and_then(|e| e.get("monte-carlo/orbital-period"))
            .expect("row");
        assert_eq!(row.get("speedup").and_then(Json::as_f64), Some(4.0));

        let foreign = parse(r#"{"schema":"other/9"}"#).expect("parses");
        assert!(engine_summaries(&foreign).is_err());
        let incomplete = parse(
            r#"{"schema":"sysunc-bench-engine/1","entries":[{"engine":"monte-carlo"}]}"#,
        )
        .expect("parses");
        assert!(engine_summaries(&incomplete).is_err());
    }

    #[test]
    fn engine_regressions_flag_drops_and_missing_rows() {
        let baseline = engine_summaries(&engine_doc(4_000_000.0, 4.0)).expect("folds");
        let healthy = engine_summaries(&engine_doc(3_500_000.0, 3.5)).expect("folds");
        assert!(engine_regressions(&healthy, &baseline, 0.8).is_empty());

        let regressed = engine_summaries(&engine_doc(2_000_000.0, 2.0)).expect("folds");
        let findings = engine_regressions(&regressed, &baseline, 0.8);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("monte-carlo/orbital-period"), "{findings:?}");

        let findings = engine_regressions(&regressed[1..], &baseline, 0.8);
        assert!(findings.iter().any(|f| f.contains("missing")), "{findings:?}");
    }

    #[test]
    fn chunked_speedup_shortfall_enforces_the_floor_per_engine() {
        let rows = engine_summaries(&engine_doc(4_000_000.0, 4.0)).expect("folds");
        // The evidential row's 1.0x is fine: it is not a named engine.
        assert!(chunked_speedup_shortfall(&rows, &["monte-carlo"], 2.0).is_empty());
        let slow = engine_summaries(&engine_doc(1_500_000.0, 1.5)).expect("folds");
        let findings = chunked_speedup_shortfall(&slow, &["monte-carlo"], 2.0);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("1.50x"), "{findings:?}");
    }

    /// A cold + cache-hot suite: 8 clients, 4 hot seeds, 400 jobs per
    /// mode; cold p50 is 1000 us.
    fn cache_suite(hot_hits: u64, hot_p50: u64) -> Vec<ModeSummary> {
        let doc = |hits: u64, p50: u64| {
            format!(
                r#"{{"schema":"sysunc-bench-serve/1","ok":400,"failed":0,
                    "cache_hits":{hits},"clients":8,"hot_seeds":4,
                    "throughput_rps":100.0,
                    "latency_micros":{{"p50":{p50},"p99":4000}}}}"#
            )
        };
        let suite = parse(&format!(
            r#"{{"schema":"sysunc-bench-serve/2","modes":{{
                "cold":{cold},"cache-hot":{hot}}}}}"#,
            cold = doc(0, 1000),
            hot = doc(hot_hits, hot_p50)
        ))
        .expect("suite parses");
        serve_mode_summaries(&suite).expect("folds")
    }

    #[test]
    fn cache_speedup_shortfall_enforces_the_hit_ratio() {
        // 32 misses (8 clients x 4 hot seeds) is the most a working
        // cache allows; the throughput ratio plays no part.
        assert_eq!(cache_speedup_shortfall(&cache_suite(368, 200)), None);
        assert_eq!(cache_speedup_shortfall(&cache_suite(400, 200)), None);
        let msg = cache_speedup_shortfall(&cache_suite(367, 200)).expect("shortfall");
        assert!(msg.contains("33 of 400"), "{msg}");
        // A run the cache never answered fails, however fast it was.
        let msg = cache_speedup_shortfall(&cache_suite(0, 200)).expect("shortfall");
        assert!(msg.contains("400 of 400"), "{msg}");
        // Hits that answer no faster than fresh runs fail too.
        let msg = cache_speedup_shortfall(&cache_suite(400, 1000)).expect("shortfall");
        assert!(msg.contains("p50"), "{msg}");
        // A document predating hit accounting reads as zero hits.
        let legacy = serve_mode_summaries(&serve_suite(50.0, 500.0)).expect("folds");
        assert!(cache_speedup_shortfall(&legacy).is_some());
        // A run without both modes cannot be judged.
        assert_eq!(cache_speedup_shortfall(&cache_suite(0, 200)[..1]), None);
    }
}
