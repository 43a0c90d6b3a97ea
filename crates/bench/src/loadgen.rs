//! Loopback load generator for the propagation server.
//!
//! Drives the propagate routes from N concurrent client threads over
//! keep-alive connections, collects per-request wall-clock latencies,
//! and renders a machine-readable summary (`BENCH_serve.json`) with
//! throughput and latency percentiles — the serving-layer entry in the
//! bench trajectory.
//!
//! Three [`LoadMode`]s exercise the content-addressed pipeline:
//!
//! - `cold` — every request has a distinct seed, so every answer is
//!   computed fresh (`X-Sysunc-Cache: miss`). The baseline.
//! - `cache-hot` — requests cycle through a small set of seeds, so
//!   after warm-up nearly every answer comes from the response cache.
//! - `batch` — each HTTP call carries many jobs through
//!   `POST /v1/propagate/batch`, amortising round-trips.
//!
//! The seed spaces of the three modes are disjoint, so runs sharing a
//! server never contaminate each other's cache behaviour. Every run
//! counts the jobs the server reports as cache hits
//! (`X-Sysunc-Cache`), which is what the serve trend gate checks.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use sysunc::prob::json::writer::JsonWriter;
use sysunc::prob::json::JsonError;
use sysunc::{UncertainInput, WireRequest};
use sysunc_serve::{HttpClient, ServeError};

/// Which traffic shape a run drives at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Distinct seed per request — every answer computed fresh.
    Cold,
    /// A small cycling seed set — answers come from the response cache.
    CacheHot,
    /// Many jobs per HTTP call through the batch route.
    Batch,
}

impl LoadMode {
    /// Every mode, in the order the suite runs them (cold first, so a
    /// shared server starts with an empty cache for the baseline).
    pub const ALL: [LoadMode; 3] = [LoadMode::Cold, LoadMode::CacheHot, LoadMode::Batch];

    /// The stable wire/CLI name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            LoadMode::Cold => "cold",
            LoadMode::CacheHot => "cache-hot",
            LoadMode::Batch => "batch",
        }
    }

    /// Parses a CLI spelling; `None` for unknown names.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "cold" => Some(LoadMode::Cold),
            "cache-hot" => Some(LoadMode::CacheHot),
            "batch" => Some(LoadMode::Batch),
            _ => None,
        }
    }
}

/// Shape of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client threads, each with its own connection.
    pub clients: usize,
    /// HTTP calls each client issues sequentially.
    pub requests_per_client: usize,
    /// Engine name sent in every request.
    pub engine: String,
    /// Registered model name sent in every request.
    pub model: String,
    /// Evaluation budget per request.
    pub budget: usize,
    /// Traffic shape to drive.
    pub mode: LoadMode,
    /// Jobs per HTTP call in [`LoadMode::Batch`].
    pub batch_size: usize,
    /// Distinct seeds cycled through in [`LoadMode::CacheHot`].
    pub hot_seeds: u64,
    /// Shard count when the target is a `sysunc-fleet` front
    /// (`0` = plain single-process serving). Only labeling: the
    /// traffic is identical, but results are keyed `fleet-<mode>` so
    /// fleet rows sit next to single-process rows in one suite.
    pub fleet_shards: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            clients: 8,
            requests_per_client: 25,
            engine: "monte-carlo".into(),
            model: "sum".into(),
            budget: 2048,
            mode: LoadMode::Cold,
            batch_size: 16,
            hot_seeds: 4,
            fleet_shards: 0,
        }
    }
}

impl LoadgenConfig {
    /// A copy of this config retargeted at another mode — used by the
    /// suite driver to run every mode under one parameter set.
    pub fn with_mode(&self, mode: LoadMode) -> Self {
        Self { mode, ..self.clone() }
    }

    /// The key this run's summary is filed under in suite documents:
    /// the mode name, prefixed `fleet-` when the target is a sharded
    /// front — so `cache-hot` and `fleet-cache-hot` coexist in one
    /// suite and the trend gate can compare them.
    pub fn mode_key(&self) -> String {
        if self.fleet_shards > 0 {
            format!("fleet-{}", self.mode.name())
        } else {
            self.mode.name().to_string()
        }
    }

    /// The problem every request shares; only seeds vary.
    fn base_request(&self) -> WireRequest {
        let mut wire = WireRequest::new(
            self.engine.clone(),
            self.model.clone(),
            vec![
                UncertainInput::Normal { mu: 1.0, sigma: 0.5 },
                UncertainInput::Uniform { a: 0.0, b: 2.0 },
            ],
        );
        wire.budget = self.budget;
        wire
    }

    /// The wire request client `c` sends as its `i`-th call. Cold
    /// seeds are distinct per call so the server does real, varied
    /// work; cache-hot seeds cycle through `hot_seeds` values in a
    /// disjoint range so repeats hit the response cache. The cycle is
    /// staggered by client: clients running in lockstep would otherwise
    /// all request the same not-yet-cached key at once and every one of
    /// them would miss (the cache does not coalesce in-flight
    /// requests), which can leave a short hot run with zero hits.
    pub fn request(&self, client: usize, call: usize) -> WireRequest {
        let mut wire = self.base_request();
        wire.seed = match self.mode {
            LoadMode::CacheHot => {
                9_000_000 + (client as u64 + call as u64) % self.hot_seeds.max(1)
            }
            LoadMode::Cold | LoadMode::Batch => {
                (client as u64) * 1_000_003 + call as u64 + 1
            }
        };
        wire
    }

    /// The jobs client `c` sends as its `i`-th batch call. Seeds live
    /// in their own range (disjoint from cold and cache-hot) and are
    /// distinct per job, so each batch is honest fresh work.
    pub fn batch_jobs(&self, client: usize, call: usize) -> Vec<WireRequest> {
        let size = self.batch_size.max(1);
        (0..size)
            .map(|job| {
                let mut wire = self.base_request();
                wire.seed = 100_000_000
                    + (client as u64) * 1_000_003
                    + (call * size + job) as u64;
                wire
            })
            .collect()
    }

    /// Propagation jobs one HTTP call carries in this mode.
    pub fn jobs_per_call(&self) -> usize {
        match self.mode {
            LoadMode::Batch => self.batch_size.max(1),
            LoadMode::Cold | LoadMode::CacheHot => 1,
        }
    }
}

/// Outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenResult {
    /// Propagation jobs attempted (HTTP calls × jobs per call).
    pub requests: u64,
    /// Jobs answered `200` with a decodable report.
    pub ok: u64,
    /// Answered jobs the server served from its response cache
    /// (`X-Sysunc-Cache: hit`, or the batch header's `hits=H`).
    pub cache_hits: u64,
    /// Everything else (transport errors, non-200 statuses).
    pub failed: u64,
    /// Wall-clock span of the whole run.
    pub elapsed: Duration,
    /// Per-HTTP-call latencies in microseconds, sorted ascending.
    pub latencies_micros: Vec<u64>,
}

impl LoadgenResult {
    /// Completed propagation jobs per second over the run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile of the recorded latencies; `0` when no
    /// request completed. `p` is in `[0, 100]`.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        if self.latencies_micros.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.latencies_micros.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, self.latencies_micros.len()) - 1;
        self.latencies_micros[idx]
    }

    /// Renders the `sysunc-bench-serve/1` JSON summary document for
    /// one mode's run.
    ///
    /// # Errors
    ///
    /// Propagates [`JsonError`] from the strict writer (unreachable
    /// for finite inputs, but surfaced rather than hidden).
    pub fn to_json(&self, config: &LoadgenConfig) -> Result<String, JsonError> {
        let mean = if self.latencies_micros.is_empty() {
            0.0
        } else {
            let sum: u64 = self.latencies_micros.iter().sum();
            sum as f64 / self.latencies_micros.len() as f64
        };
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("sysunc-bench-serve/1");
        w.key("mode").string(&config.mode_key());
        w.key("engine").string(&config.engine);
        w.key("model").string(&config.model);
        w.key("budget").u64(config.budget as u64);
        w.key("clients").u64(config.clients as u64);
        w.key("fleet_shards").u64(config.fleet_shards as u64);
        // The host's core budget, recorded so trend gates can judge
        // fleet speedups against the hardware they actually ran on.
        w.key("cores").u64(available_cores() as u64);
        w.key("batch_size").u64(config.jobs_per_call() as u64);
        w.key("hot_seeds").u64(config.hot_seeds);
        w.key("requests").u64(self.requests);
        w.key("ok").u64(self.ok);
        w.key("cache_hits").u64(self.cache_hits);
        w.key("failed").u64(self.failed);
        w.key("elapsed_micros")
            .u64(self.elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
        w.key("throughput_rps").f64(self.throughput_rps());
        w.key("latency_micros").begin_object();
        w.key("min").u64(self.latencies_micros.first().copied().unwrap_or(0));
        w.key("p50").u64(self.percentile_micros(50.0));
        w.key("p90").u64(self.percentile_micros(90.0));
        w.key("p99").u64(self.percentile_micros(99.0));
        w.key("max").u64(self.latencies_micros.last().copied().unwrap_or(0));
        w.key("mean").f64(mean);
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Renders the `sysunc-bench-serve/2` suite document: the per-mode
/// `/1` summaries keyed by mode name under `"modes"`.
///
/// # Errors
///
/// Propagates [`JsonError`] from rendering any per-mode summary.
pub fn suite_to_json(
    entries: &[(LoadgenConfig, LoadgenResult)],
) -> Result<String, JsonError> {
    // Mode names are fixed identifiers, so the envelope is assembled
    // directly around the already-rendered per-mode documents.
    let mut out = String::from("{\"schema\":\"sysunc-bench-serve/2\",\"modes\":{");
    for (i, (config, result)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&config.mode_key());
        out.push_str("\":");
        out.push_str(&result.to_json(config)?);
    }
    out.push_str("}}");
    Ok(out)
}

/// The host's usable core count (`1` when undeterminable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Runs the load against a server at `addr` in the configured mode.
///
/// # Errors
///
/// Returns [`ServeError`] when no client could even connect; partial
/// per-request failures are counted in the result instead.
pub fn run(addr: SocketAddr, config: &LoadgenConfig) -> Result<LoadgenResult, ServeError> {
    let (tx, rx) = mpsc::channel::<(u64, u64, u64, Vec<u64>)>();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..config.clients.max(1) {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut ok = 0u64;
                let mut hits = 0u64;
                let mut failed = 0u64;
                let mut latencies = Vec::with_capacity(config.requests_per_client);
                let mut conn = HttpClient::connect(addr);
                for call in 0..config.requests_per_client {
                    let Ok(c) = conn.as_mut() else {
                        failed += config.jobs_per_call() as u64;
                        continue;
                    };
                    let t0 = Instant::now();
                    // (jobs answered, of which cache hits)
                    let answered = match config.mode {
                        LoadMode::Batch => {
                            let jobs = config.batch_jobs(client, call);
                            c.propagate_batch(&jobs)
                                .map(|o| (o.reports.len() as u64, o.cache_hits))
                        }
                        LoadMode::Cold | LoadMode::CacheHot => {
                            let wire = config.request(client, call);
                            c.propagate_traced(&wire).map(|(_, verdict)| {
                                (1, u64::from(verdict.as_deref() == Some("hit")))
                            })
                        }
                    };
                    match answered {
                        Ok((n, h)) => {
                            ok += n;
                            hits += h;
                            latencies.push(
                                t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                            );
                        }
                        Err(_) => {
                            failed += config.jobs_per_call() as u64;
                            // The connection may be poisoned; reconnect.
                            conn = HttpClient::connect(addr);
                        }
                    }
                }
                let _ = tx.send((ok, hits, failed, latencies));
            });
        }
    });
    drop(tx);
    let mut result = LoadgenResult {
        requests: (config.clients.max(1)
            * config.requests_per_client
            * config.jobs_per_call()) as u64,
        ok: 0,
        cache_hits: 0,
        failed: 0,
        elapsed: Duration::ZERO,
        latencies_micros: Vec::new(),
    };
    for (ok, hits, failed, latencies) in rx {
        result.ok += ok;
        result.cache_hits += hits;
        result.failed += failed;
        result.latencies_micros.extend(latencies);
    }
    result.elapsed = started.elapsed();
    result.latencies_micros.sort_unstable();
    if result.ok == 0 {
        return Err(ServeError::Io("no request succeeded".into()));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_data() {
        let r = LoadgenResult {
            requests: 4,
            ok: 4,
            cache_hits: 0,
            failed: 0,
            elapsed: Duration::from_secs(2),
            latencies_micros: vec![10, 20, 30, 40],
        };
        assert_eq!(r.percentile_micros(50.0), 20);
        assert_eq!(r.percentile_micros(99.0), 40);
        assert_eq!(r.percentile_micros(0.0), 10);
        assert!((r.throughput_rps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_results_do_not_divide_by_zero() {
        let r = LoadgenResult {
            requests: 0,
            ok: 0,
            cache_hits: 0,
            failed: 0,
            elapsed: Duration::ZERO,
            latencies_micros: vec![],
        };
        assert_eq!(r.percentile_micros(50.0), 0);
        assert_eq!(r.throughput_rps(), 0.0);
        let text = r.to_json(&LoadgenConfig::default()).expect("renders");
        assert!(text.contains("\"schema\":\"sysunc-bench-serve/1\""));
        assert!(text.contains("\"mode\":\"cold\""));
    }

    #[test]
    fn summary_json_is_parseable_and_complete() {
        let r = LoadgenResult {
            requests: 3,
            ok: 2,
            cache_hits: 1,
            failed: 1,
            elapsed: Duration::from_millis(10),
            latencies_micros: vec![100, 300],
        };
        let text = r.to_json(&LoadgenConfig::default()).expect("renders");
        let v = sysunc::prob::json::parse(&text).expect("parses");
        assert_eq!(v.get("ok").and_then(|j| j.as_u64()), Some(2));
        assert_eq!(v.get("cache_hits").and_then(|j| j.as_u64()), Some(1));
        assert_eq!(v.get("hot_seeds").and_then(|j| j.as_u64()), Some(4));
        assert_eq!(
            v.get("mode").and_then(|j| j.as_str().map(str::to_string)),
            Some("cold".into())
        );
        let lat = v.get("latency_micros").expect("nested");
        assert_eq!(lat.get("p50").and_then(|j| j.as_u64()), Some(100));
        assert_eq!(lat.get("p99").and_then(|j| j.as_u64()), Some(300));
        assert!(v.get("throughput_rps").and_then(|j| j.as_f64()).is_some());
    }

    #[test]
    fn config_requests_vary_by_seed_but_share_the_problem() {
        let c = LoadgenConfig::default();
        let a = c.request(0, 0);
        let b = c.request(1, 0);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.engine, b.engine);
    }

    #[test]
    fn mode_names_round_trip_through_parse() {
        for mode in LoadMode::ALL {
            assert_eq!(LoadMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(LoadMode::parse("warm"), None);
    }

    #[test]
    fn cache_hot_seeds_cycle_within_a_small_disjoint_range() {
        let c = LoadgenConfig {
            mode: LoadMode::CacheHot,
            hot_seeds: 4,
            ..LoadgenConfig::default()
        };
        // The cycle length is hot_seeds, staggered by client so that
        // concurrent lockstep clients request different keys.
        assert_eq!(c.request(0, 0).seed, c.request(4, 0).seed);
        assert_eq!(c.request(0, 1).seed, c.request(0, 5).seed);
        assert_eq!(c.request(1, 0).seed, c.request(0, 1).seed);
        assert_ne!(c.request(0, 0).seed, c.request(0, 1).seed);
        assert_ne!(c.request(0, 0).seed, c.request(1, 0).seed);
        // Disjoint from the cold range for the default client counts.
        let cold = LoadgenConfig::default();
        for client in 0..8 {
            for call in 0..25 {
                assert!(cold.request(client, call).seed < 9_000_000);
            }
        }
        assert!(c.request(0, 0).seed >= 9_000_000);
    }

    #[test]
    fn batch_jobs_are_distinct_within_and_across_calls() {
        let c = LoadgenConfig {
            mode: LoadMode::Batch,
            batch_size: 4,
            ..LoadgenConfig::default()
        };
        assert_eq!(c.jobs_per_call(), 4);
        let first = c.batch_jobs(0, 0);
        let second = c.batch_jobs(0, 1);
        let mut seeds: Vec<u64> = first.iter().chain(&second).map(|w| w.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "every job seed is distinct");
        assert!(seeds.iter().all(|&s| s >= 100_000_000), "disjoint seed range");
    }

    #[test]
    fn fleet_runs_are_keyed_and_labeled_distinctly() {
        let single = LoadgenConfig::default();
        assert_eq!(single.mode_key(), "cold");
        let fleet = LoadgenConfig {
            fleet_shards: 2,
            mode: LoadMode::CacheHot,
            ..LoadgenConfig::default()
        };
        assert_eq!(fleet.mode_key(), "fleet-cache-hot");
        let r = LoadgenResult {
            requests: 1,
            ok: 1,
            cache_hits: 0,
            failed: 0,
            elapsed: Duration::from_millis(1),
            latencies_micros: vec![5],
        };
        let text = r.to_json(&fleet).expect("renders");
        let v = sysunc::prob::json::parse(&text).expect("parses");
        assert_eq!(
            v.get("mode").and_then(|j| j.as_str().map(str::to_string)),
            Some("fleet-cache-hot".into())
        );
        assert_eq!(v.get("fleet_shards").and_then(|j| j.as_u64()), Some(2));
        assert!(v.get("cores").and_then(|j| j.as_u64()).unwrap_or(0) >= 1);
        let suite =
            suite_to_json(&[(fleet.clone(), r.clone())]).expect("suite renders");
        let sv = sysunc::prob::json::parse(&suite).expect("parses");
        assert!(
            sv.get("modes").and_then(|m| m.get("fleet-cache-hot")).is_some(),
            "fleet rows are keyed with the fleet- prefix"
        );
    }

    #[test]
    fn suite_document_nests_one_summary_per_mode() {
        let result = LoadgenResult {
            requests: 1,
            ok: 1,
            cache_hits: 0,
            failed: 0,
            elapsed: Duration::from_millis(5),
            latencies_micros: vec![42],
        };
        let base = LoadgenConfig::default();
        let entries: Vec<_> = LoadMode::ALL
            .iter()
            .map(|&mode| (base.with_mode(mode), result.clone()))
            .collect();
        let text = suite_to_json(&entries).expect("renders");
        let v = sysunc::prob::json::parse(&text).expect("parses");
        assert_eq!(
            v.get("schema").and_then(|j| j.as_str().map(str::to_string)),
            Some("sysunc-bench-serve/2".into())
        );
        let modes = v.get("modes").expect("modes map");
        for mode in LoadMode::ALL {
            let doc = modes.get(mode.name()).expect("per-mode doc");
            assert_eq!(doc.get("ok").and_then(|j| j.as_u64()), Some(1));
        }
    }
}
