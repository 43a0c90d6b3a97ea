//! Metric names, units and the one-line JSON result.

use sysunc::prob::json::writer::JsonWriter;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_jobs_per_s", "jobs/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ok_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Layers are named
/// by crate module.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.read_us", "us"),
    ("serve.http.write_us", "us"),
    ("prob.json.decode_us", "us"),
    ("core.wire.canonical_us", "us"),
    ("serve.router.decode_batch_us", "us"),
    ("prob.json.encode_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "share"),
    ("serve.cache.evictions", "count"),
    ("serve.server.route_us", "us"),
    ("serve.server.engine_us", "us"),
    ("serve.server.residual_us", "us"),
    ("core.propagator.monte-carlo.us_per_request", "us"),
    ("core.propagator.latin-hypercube.us_per_request", "us"),
    ("core.propagator.sobol-qmc.us_per_request", "us"),
    ("core.propagator.pce-spectral.us_per_request", "us"),
    ("core.propagator.evidential.us_per_request", "us"),
    ("core.propagator.monte-carlo.evals_per_s", "samples/s"),
    ("core.propagator.latin-hypercube.evals_per_s", "samples/s"),
    ("core.propagator.sobol-qmc.evals_per_s", "samples/s"),
    ("core.propagator.pce-spectral.evals_per_s", "grid_points/s"),
    ("core.propagator.evidential.evals_per_s", "corner_calls/s"),
    ("core.propagator.chunked_serial_us", "us"),
    ("core.propagator.chunked_threaded_us", "us"),
    ("core.propagator.unaccounted_us", "us"),
    ("core.propagator.run_batch_us", "us"),
    ("core.propagator.batch_efficiency", "share"),
    ("core.propagator.dedup_ratio", "share"),
    ("sampling.design.random.ns_per_value", "ns"),
    ("sampling.design.lhs.ns_per_value", "ns"),
    ("sampling.design.sobol.ns_per_value", "ns"),
    ("prob.dist.normal.quantile_ns", "ns"),
    ("prob.dist.uniform.quantile_ns", "ns"),
    ("prob.dist.exponential.quantile_ns", "ns"),
    ("prob.dist.beta.quantile_ns", "ns"),
    ("model.sum.eval_ns", "ns"),
    ("model.linear-2x3y.eval_ns", "ns"),
    ("model.product.eval_ns", "ns"),
    ("model.orbital-period.eval_ns", "ns"),
    ("model.missed-hazard.eval_ns", "ns"),
    ("prob.stats.sort_us", "us"),
    ("pce.fit_us", "us"),
    ("pce.eval_ns", "ns"),
    ("evidence.propagate_us", "us"),
    ("evidence.corner_evals", "count"),
    ("evidence.evals_per_budget", "ratio"),
    ("fleet.front_overhead_us", "us"),
    ("fleet.shard.place_ns", "ns"),
    ("fleet.cache_locality", "share"),
    ("trace.overhead_pct", "%"),
];

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `table` with its unit, taking values from `values`. Every metric
/// of `table` must have exactly one value, and every value a metric of
/// `table`; a metric whose layer a workload does not exercise is given
/// its value (0) explicitly.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("value for unknown metric '{name}'"));
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(correct);
    w.key("attempted").u64(attempted.max(1));
    w.key("failed").u64(failed);
    w.key("metrics").begin_object();
    for (name, unit) in table {
        let value = match values.iter().filter(|(n, _)| n == name).collect::<Vec<_>>()[..] {
            [(_, v)] => *v,
            [] => return Err(format!("no value for metric '{name}'")),
            _ => return Err(format!("more than one value for metric '{name}'")),
        };
        w.key(name).begin_object();
        w.key("value")
            .f64(if value.is_finite() { value } else { 0.0 });
        w.key("unit").string(unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish().map_err(|e| format!("result line: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc::prob::json::{self, Json};

    /// Whether `name` fits the metric-name grammar: `[A-Za-z0-9_.-]+`,
    /// starting with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_fit_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for bad in ["", "a b", "_lead", "x{y}", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn the_result_line_parses_with_prob_json() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .map(|(n, _)| (*n, if *n == "latency_p50_us" { 512.25 } else { 0.0 }))
            .collect();
        let line =
            result_line(true, 1200, 0, END_TO_END, &values).expect("every metric has a value");
        let doc = json::parse(&line).expect("result line parses");
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").expect("metrics");
        let p50 = metrics.get("latency_p50_us").expect("p50");
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(512.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn the_result_line_needs_exactly_one_value_per_metric() {
        let table = &[("a_us", "us"), ("b_us", "us")];
        assert!(result_line(true, 1, 0, table, &[("a_us", 1.0), ("b_us", 2.0)]).is_ok());
        let missing = result_line(true, 1, 0, table, &[("a_us", 1.0)]);
        assert!(missing.is_err_and(|e| e.contains("b_us")));
        let twice = result_line(
            true,
            1,
            0,
            table,
            &[("a_us", 1.0), ("a_us", 1.0), ("b_us", 2.0)],
        );
        assert!(twice.is_err());
        let misspelled = result_line(
            true,
            1,
            0,
            table,
            &[("a_us", 1.0), ("b_us", 2.0), ("c", 3.0)],
        );
        assert!(misspelled.is_err_and(|e| e.contains("'c'")));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
