//! End-to-end tests of the propagation server: wire fidelity under
//! concurrency, the content-addressed response cache (bit-identical
//! hits, LRU eviction), batch propagation with intra-batch dedup,
//! backpressure (`503` from both the admission gate and the accept-side
//! connection cap), the decode-time cost ceiling (`400`), deadlines
//! (`408`), contained panics (`500`) and graceful shutdown — all over
//! real TCP connections against an ephemeral-port server.
//!
//! The `#[ignore]`d tests measure how late a `408` is for jobs at the
//! cost ceiling. They depend on release-build timing; run them with
//! `cargo test --release --test serve_integration -- --ignored`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sysunc::prob::json::{self, Json};
use sysunc::{engine_by_name, ModelRegistry, UncertainInput, WireRequest, ENGINE_NAMES};
use sysunc_serve::router::{job_cost, COST_CEILING};
use sysunc_serve::{HttpClient, Server, ServerConfig};

fn standard_inputs() -> Vec<UncertainInput> {
    vec![
        UncertainInput::Normal { mu: 1.0, sigma: 0.5 },
        UncertainInput::Uniform { a: 0.0, b: 2.0 },
    ]
}

/// The acceptance bar for the serving layer: at least 8 concurrent
/// client threads, each comparing every report byte the server returns
/// against the same propagation run directly in-process. Serving must
/// not perturb results — not by a ULP.
#[test]
fn concurrent_clients_get_bit_identical_reports() {
    let server = Server::start(
        ServerConfig { workers: 4, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let addr = server.addr();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let local = ModelRegistry::standard().expect("registry builds");
                let mut client = HttpClient::connect(addr).expect("connects");
                for call in 0..3 {
                    let engine_name = ENGINE_NAMES[(t + call) % ENGINE_NAMES.len()];
                    let mut wire =
                        WireRequest::new(engine_name, "linear-2x3y", standard_inputs());
                    wire.budget = 512;
                    wire.seed = (t as u64) * 1000 + call as u64;
                    wire.threshold = Some(2.5);
                    let served = client.propagate(&wire).expect("server propagates");

                    let model = local.get("linear-2x3y").expect("registered");
                    let request = wire.to_request(model).expect("valid");
                    let engine = wire.resolve_engine().expect("known engine");
                    let direct = engine.propagate(&request).expect("runs in-process");
                    assert_eq!(
                        served, direct,
                        "served report differs from in-process run \
                         (engine {engine_name}, thread {t}, call {call})"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread succeeds");
    }
    server.shutdown();
}

/// A registry whose single model blocks until `release` flips,
/// letting tests hold the run permits at a known occupancy.
fn blocking_registry(release: Arc<AtomicBool>) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "blocker",
            Box::new(move |x: &[f64]| {
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                x.iter().sum::<f64>()
            }),
        )
        .expect("registers");
    registry
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    let release = Arc::new(AtomicBool::new(false));
    let server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            request_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
        blocking_registry(Arc::clone(&release)),
    )
    .expect("server starts");
    let addr = server.addr();

    let wire = WireRequest::new("monte-carlo", "blocker", standard_inputs());
    let body = json::to_string(&wire);

    // Occupy the single worker, then the single queue slot.
    let in_flight: Vec<_> = (0..2)
        .map(|_| {
            let wire = wire.clone();
            let handle = std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connects");
                client.propagate(&wire)
            });
            // Stagger so the first request reaches the worker before
            // the second claims the queue slot.
            std::thread::sleep(Duration::from_millis(150));
            handle
        })
        .collect();

    // The second request waits for the run permit, and /healthz (which
    // needs no permit) counts it.
    let mut probe = HttpClient::connect(addr).expect("connects");
    assert_eq!(healthz(&mut probe, "queue_depth"), Some(1));

    // Worker busy + queue full: the next request must be refused
    // immediately with backpressure advice, not queued or dropped.
    let mut client = HttpClient::connect(addr).expect("connects");
    let refused = client
        .request("POST", "/v1/propagate", Some(&body))
        .expect("response arrives");
    assert_eq!(refused.status, 503, "body: {}", refused.body_text());
    assert_eq!(refused.header("Retry-After"), Some("1"));

    // Releasing the blocker lets both accepted requests finish
    // normally: 503 shed load without corrupting in-flight work.
    release.store(true, Ordering::Release);
    for handle in in_flight {
        let report = handle.join().expect("joins").expect("accepted request completes");
        assert_eq!(report.evaluations, wire.budget);
    }
    server.shutdown();
}

#[test]
fn deadline_exceeded_answers_408() {
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "slow",
            Box::new(|x: &[f64]| {
                std::thread::sleep(Duration::from_millis(2));
                x.iter().sum::<f64>()
            }),
        )
        .expect("registers");
    let server = Server::start(
        ServerConfig {
            workers: 1,
            request_timeout: Duration::from_millis(80),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server starts");

    // 4096 evaluations at 2 ms each can never meet an 80 ms deadline.
    let wire = WireRequest::new("monte-carlo", "slow", standard_inputs());
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    let sent = Instant::now();
    let response = client
        .request("POST", "/v1/propagate", Some(&json::to_string(&wire)))
        .expect("response arrives");
    assert_eq!(response.status, 408, "body: {}", response.body_text());
    // The run stops at its next cancel check, every 64 rows: at most
    // 64 evaluations (128 ms) past the deadline per run thread, not the
    // 2 s a 1,024-row chunk of evaluations would take.
    let waited = sent.elapsed();
    assert!(waited < Duration::from_secs(1), "408 arrived {waited:?} after the send");

    // The cancel token turns the abandoned job into fast no-ops: the
    // same connection answers a cheap request promptly afterwards.
    let engines = client.get("/v1/engines").expect("keep-alive survives");
    assert_eq!(engines.status, 200);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "gentle",
            Box::new(|x: &[f64]| {
                std::thread::sleep(Duration::from_millis(1));
                x.iter().sum::<f64>()
            }),
        )
        .expect("registers");
    let server = Server::start(ServerConfig::default(), registry).expect("server starts");
    let addr = server.addr();

    // ~300 ms of work, comfortably in flight when shutdown triggers.
    let mut wire = WireRequest::new("monte-carlo", "gentle", standard_inputs());
    wire.budget = 300;
    let worker = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("connects");
        client.propagate(&wire)
    });
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();

    // Shutdown returned only after the acceptor, connections and pool
    // drained — so the in-flight request has a complete answer.
    let report = worker.join().expect("joins").expect("in-flight request completes");
    assert_eq!(report.evaluations, 300);

    // And the listener really is gone.
    assert!(
        HttpClient::connect(addr).is_err()
            || HttpClient::connect(addr)
                .and_then(|mut c| c.get("/v1/engines"))
                .is_err(),
        "server still serving after shutdown"
    );
}

#[test]
fn discovery_and_metrics_routes_reflect_served_traffic() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");

    let engines = client.get("/v1/engines").expect("engines route");
    assert_eq!(engines.status, 200);
    let doc = json::parse(&engines.body_text()).expect("engines JSON");
    let listed = doc.get("engines").and_then(Json::as_arr).expect("array");
    assert_eq!(listed.len(), ENGINE_NAMES.len());

    let models = client.get("/v1/models").expect("models route");
    let doc = json::parse(&models.body_text()).expect("models JSON");
    let listed = doc.get("models").and_then(Json::as_arr).expect("array");
    assert!(listed.iter().any(|m| m.as_str() == Some("linear-2x3y")));

    let wire = WireRequest::new("sobol-qmc", "sum", standard_inputs());
    client.propagate(&wire).expect("propagates");

    let text = client.scrape_metrics().expect("metrics scrape");
    assert!(text.contains("sysunc_http_requests_total{route=\"/v1/propagate\",status=\"200\"} 1"));
    assert!(text.contains("sysunc_engine_runs_total{engine=\"sobol-qmc\"} 1"));
    assert!(text.contains("sysunc_http_request_duration_micros_bucket"));

    // Bad requests get typed JSON errors, not connection drops.
    let bad = client
        .request("POST", "/v1/propagate", Some("{\"engine\":\"nope\"}"))
        .expect("response arrives");
    assert_eq!(bad.status, 400);
    let doc = json::parse(&bad.body_text()).expect("error JSON");
    assert_eq!(doc.get("status").and_then(Json::as_u64), Some(400));
    assert!(doc.get("error").and_then(Json::as_str).is_some());
    server.shutdown();
}

/// One numeric field of the server's `/healthz` answer.
fn healthz(client: &mut HttpClient, key: &str) -> Option<u64> {
    let health = client.get("/healthz").expect("healthz answers");
    assert_eq!(health.status, 200);
    json::parse(&health.body_text()).expect("healthz JSON").get(key).and_then(Json::as_u64)
}

/// `workers: 0` still runs one propagation at a time, and `/healthz`
/// reports that one run permit, not the 0 it was configured with.
#[test]
fn healthz_reports_the_run_permits_the_gate_has() {
    let server = Server::start(
        ServerConfig { workers: 0, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    assert_eq!(healthz(&mut client, "workers"), Some(1));
    server.shutdown();
}

/// A model that panics answers `500`; the panic is counted in
/// `/healthz`, its run permit is returned, and the next request on the
/// same single-permit server answers `200`.
#[test]
fn a_panicking_model_answers_500_and_the_server_serves_on() {
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "explode",
            Box::new(|x: &[f64]| {
                assert!(x.is_empty(), "model exploded");
                0.0
            }),
        )
        .expect("registers");
    registry.register("calm", Box::new(|x: &[f64]| x.iter().sum::<f64>())).expect("registers");
    let server = Server::start(
        ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() },
        registry,
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");

    let mut wire = WireRequest::new("monte-carlo", "explode", standard_inputs());
    wire.budget = 64;
    let failed = client
        .request("POST", "/v1/propagate", Some(&json::to_string(&wire)))
        .expect("response arrives");
    assert_eq!(failed.status, 500, "body: {}", failed.body_text());
    assert_eq!(healthz(&mut client, "worker_panics"), Some(1));

    wire.model = "calm".into();
    let report = client.propagate(&wire).expect("the next request propagates");
    assert_eq!(report.evaluations, 64);
    server.shutdown();
}

/// Poison bodies: each asks for more than the cost ceiling and, before
/// the ceiling, aborted or starved the server. Decoding refuses them
/// with `400` before they are admitted or allocate anything, alone or
/// inside a batch (which names the job).
#[test]
fn over_ceiling_requests_answer_400_before_any_run() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    let good = json::to_string(&WireRequest::new("monte-carlo", "sum", standard_inputs()));
    for poison in poison_bodies() {
        let refused = client
            .request("POST", "/v1/propagate", Some(&poison))
            .expect("response arrives");
        assert_eq!(refused.status, 400, "body: {}", refused.body_text());
        assert!(refused.body_text().contains("over the ceiling"), "{}", refused.body_text());

        let batch = format!("{{\"jobs\":[{good},{poison}]}}");
        let refused = client
            .request("POST", "/v1/propagate/batch", Some(&batch))
            .expect("response arrives");
        assert_eq!(refused.status, 400, "body: {}", refused.body_text());
        assert!(refused.body_text().contains("job 1: request costs"), "{}", refused.body_text());
    }
    assert_eq!(healthz(&mut client, "worker_panics"), Some(0));
    let text = client.scrape_metrics().expect("metrics scrape");
    assert_eq!(metric_value(&text, "sysunc_cache_misses_total"), Some(0), "nothing ran");
    server.shutdown();
}

/// The two poison bodies: Monte Carlo at a budget of 4·10⁸ (3.2 GB of
/// design matrices), and `pce-spectral` over 12 inputs (a 6^12-node
/// tensor grid, a 52 GB allocation).
fn poison_bodies() -> [String; 2] {
    let normal = r#"{"dist":"normal","mu":0,"sigma":1}"#;
    let body = |engine: &str, inputs: &[&str], extra: &str| {
        format!(r#"{{"engine":"{engine}","model":"sum","inputs":[{}]{extra}}}"#, inputs.join(","))
    };
    [
        body("monte-carlo", &[normal; 2], r#","budget":400000000"#),
        body("pce-spectral", &[normal; 12], ""),
    ]
}

/// How late a `408` may arrive after its deadline, as PROTOCOL.md
/// states it.
const STATED_LATENESS: Duration = Duration::from_millis(250);

/// The deadline of the release-timing tests: well inside the fastest
/// job at the ceiling (40–63 ms uncancelled for the sampling engines on
/// a 2-vCPU VM), so the deadline falls while every measured job still
/// runs and each one must answer `408`.
const TIGHT_DEADLINE: Duration = Duration::from_millis(10);

fn normals(n: usize) -> Vec<UncertainInput> {
    vec![UncertainInput::Normal { mu: 0.0, sigma: 1.0 }; n]
}

/// For each engine, its costliest accepted job of one shape: one input
/// for the sampling engines (the output column costs most there), two
/// for `pce-spectral`, and eight for `evidential` (3 focal elements per
/// input, 257 corner calls each).
fn ceiling_job(engine: &str) -> WireRequest {
    let (inputs, budget) = match engine {
        "latin-hypercube" => (normals(1), COST_CEILING as usize / 3),
        "pce-spectral" => (normals(2), (COST_CEILING as usize - 36 * 4) / 9),
        "evidential" => (normals(8), 10_000),
        _ => (normals(1), COST_CEILING as usize / 2),
    };
    let mut wire = WireRequest::new(engine, "sum", inputs);
    wire.budget = budget;
    let cost = job_cost(&wire);
    assert!(cost <= COST_CEILING && cost > COST_CEILING * 3 / 4, "{engine} costs {cost}");
    wire
}

/// For each engine that samples Beta quantiles, its costliest accepted
/// job on one Beta input: a Beta value is priced at 51 units where a
/// Normal one costs 1, so the run stays as short as `ceiling_job`'s.
fn beta_ceiling_job(engine: &str) -> WireRequest {
    let mut wire =
        WireRequest::new(engine, "sum", vec![UncertainInput::Beta { alpha: 2.5, beta: 3.5 }]);
    // The largest budget the ceiling admits: job_cost grows with it.
    let (mut lo, mut hi) = (1, COST_CEILING as usize);
    while lo < hi {
        wire.budget = (lo + hi).div_ceil(2);
        if job_cost(&wire) <= COST_CEILING {
            lo = wire.budget;
        } else {
            hi = wire.budget - 1;
        }
    }
    wire.budget = lo;
    let cost = job_cost(&wire);
    assert!(cost <= COST_CEILING && cost > COST_CEILING * 3 / 4, "{engine} costs {cost}");
    wire
}

/// Sends `body` to a fresh `TIGHT_DEADLINE` server and returns the answer
/// with the time it took past the deadline. Measurements hold a lock,
/// so the two timing tests never share the CPU.
fn lateness_of(path: &str, body: &str) -> (u16, Duration) {
    static ALONE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(
        ServerConfig { request_timeout: TIGHT_DEADLINE, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    let sent = Instant::now();
    let response = client.request("POST", path, Some(body)).expect("response arrives");
    let late = sent.elapsed().saturating_sub(TIGHT_DEADLINE);
    server.shutdown();
    (response.status, late)
}

/// Every engine, at the cost ceiling, answers `408` within the lateness
/// PROTOCOL.md states. The stages that make no model call cannot be
/// cancelled, so this is what the ceiling buys.
#[test]
#[ignore = "release timing tier: run via ci.sh"]
fn every_engine_at_the_ceiling_answers_408_within_the_stated_lateness() {
    for engine in ENGINE_NAMES {
        let (status, late) = lateness_of("/v1/propagate", &json::to_string(&ceiling_job(engine)));
        eprintln!("{engine}: {status} {late:?} past the deadline");
        assert_eq!(status, 408, "{engine} at the ceiling outlasts a 10 ms deadline");
        assert!(late <= STATED_LATENESS, "{engine}: 408 came {late:?} past the deadline");
    }
}

/// A Beta input at the ceiling is as late as a Normal one: its price
/// covers the inverse-CDF transform, which cannot be cancelled.
#[test]
#[ignore = "release timing tier: run via ci.sh"]
fn beta_input_jobs_at_the_ceiling_answer_408_within_the_stated_lateness() {
    for engine in ["monte-carlo", "latin-hypercube", "sobol-qmc", "pce-spectral"] {
        let wire = beta_ceiling_job(engine);
        let (status, late) = lateness_of("/v1/propagate", &json::to_string(&wire));
        let budget = wire.budget;
        eprintln!("{engine}, one Beta input, budget {budget}: {status} {late:?} past the deadline");
        assert_eq!(status, 408, "{engine} at the ceiling outlasts a 10 ms deadline");
        assert!(late <= STATED_LATENESS, "{engine}: 408 came {late:?} past the deadline");
    }
}

/// An 8-job batch at the ceiling is only as late as the jobs running at
/// the deadline: the jobs not yet started never start.
#[test]
#[ignore = "release timing tier: run via ci.sh"]
fn an_8_job_batch_at_the_ceiling_answers_408_within_the_stated_lateness() {
    let jobs: Vec<String> = (0..8)
        .map(|seed| {
            let mut wire = ceiling_job("latin-hypercube");
            wire.inputs = normals(2);
            wire.budget = COST_CEILING as usize * 2 / 9;
            wire.seed = seed;
            assert!(job_cost(&wire) <= COST_CEILING);
            json::to_string(&wire)
        })
        .collect();
    let body = format!("{{\"jobs\":[{}]}}", jobs.join(","));
    let (status, late) = lateness_of("/v1/propagate/batch", &body);
    eprintln!("8-job batch: {status} {late:?} past the deadline");
    assert_eq!(status, 408);
    assert!(late <= STATED_LATENESS, "the batch's 408 came {late:?} past the deadline");
}

/// First value of a non-comment exposition line whose metric name
/// matches exactly.
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(name)).then(|| parts.next())?
        })
        .and_then(|v| v.parse().ok())
}

/// Cache hits must be *byte*-identical to recomputation — eight
/// concurrent clients hammer one request and every response body is
/// compared against the same propagation run directly in-process. The
/// cache's accounting is exact: the clients' `X-Sysunc-Cache` verdicts
/// are the server's hit and miss counters, each client misses the one
/// key at most once, and only a miss runs the engine.
#[test]
fn cache_hits_are_bit_identical_under_concurrency() {
    let server = Server::start(
        ServerConfig { workers: 4, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let addr = server.addr();

    let mut wire = WireRequest::new("monte-carlo", "sum", standard_inputs());
    wire.budget = 512;
    wire.seed = 777;
    let local = ModelRegistry::standard().expect("registry builds");
    let model = local.get("sum").expect("registered");
    let request = wire.to_request(model).expect("valid");
    let direct = wire.resolve_engine().expect("known").propagate(&request).expect("runs");
    let expected = json::to_string(&direct);
    let body = json::to_string(&wire);

    let clients = 8;
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let body = body.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connects");
                let (mut hits, mut misses) = (0u64, 0u64);
                for _ in 0..4 {
                    let response = client
                        .request("POST", "/v1/propagate", Some(&body))
                        .expect("response arrives");
                    assert_eq!(response.status, 200, "body: {}", response.body_text());
                    let verdict = response.header("X-Sysunc-Cache").expect("cache header");
                    match verdict {
                        "hit" => hits += 1,
                        "miss" => misses += 1,
                        other => panic!("unexpected verdict '{other}'"),
                    }
                    assert_eq!(
                        response.body_text(),
                        expected,
                        "cached response differs from in-process run ({verdict})"
                    );
                }
                (hits, misses)
            })
        })
        .collect();
    let (mut hits, mut misses) = (0u64, 0u64);
    for t in threads {
        let (h, m) = t.join().expect("client thread succeeds");
        hits += h;
        misses += m;
    }

    let mut client = HttpClient::connect(addr).expect("connects");
    let text = client.scrape_metrics().expect("metrics scrape");
    assert_eq!(hits + misses, 32, "every request was either a hit or a miss");
    assert_eq!(metric_value(&text, "sysunc_cache_hits_total"), Some(hits));
    assert_eq!(metric_value(&text, "sysunc_cache_misses_total"), Some(misses));
    // Concurrent first requests may race to a miss each, but every
    // client's later calls find the inserted entry.
    assert!(
        misses <= clients,
        "at most one miss per client for one key, got {misses} misses"
    );
    assert_eq!(
        metric_value(&text, "sysunc_engine_runs_total{engine=\"monte-carlo\"}"),
        Some(misses),
        "a hit runs no engine"
    );
    server.shutdown();
}

/// With a two-entry single-shard cache, touching A keeps it resident
/// while C evicts the least-recently-used B.
#[test]
fn cache_evicts_least_recently_used_at_capacity() {
    let server = Server::start(
        ServerConfig { cache_capacity: 2, cache_shards: 1, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");

    let request_with_seed = |seed: u64| {
        let mut wire = WireRequest::new("monte-carlo", "sum", standard_inputs());
        wire.budget = 128;
        wire.seed = seed;
        wire
    };
    let verdict = |client: &mut HttpClient, seed: u64| {
        let (_, verdict) = client
            .propagate_traced(&request_with_seed(seed))
            .expect("propagates");
        verdict.expect("cache header present")
    };

    assert_eq!(verdict(&mut client, 1), "miss", "A enters the cache");
    assert_eq!(verdict(&mut client, 2), "miss", "B enters the cache");
    assert_eq!(verdict(&mut client, 1), "hit", "A refreshed");
    assert_eq!(verdict(&mut client, 3), "miss", "C evicts the stale B");
    assert_eq!(verdict(&mut client, 2), "miss", "B was evicted");
    assert_eq!(verdict(&mut client, 3), "hit", "C survived B's reinsertion");

    let text = client.scrape_metrics().expect("metrics scrape");
    let evictions =
        metric_value(&text, "sysunc_cache_evictions_total").expect("evictions gauge");
    assert!(evictions >= 1, "eviction must be counted, got {evictions}");
    server.shutdown();
}

/// N identical jobs in one batch run the engine once and still yield N
/// identical reports — and the whole batch is served from cache on the
/// second round-trip.
#[test]
fn batch_requests_dedup_identical_jobs_and_reuse_the_cache() {
    let evals = Arc::new(AtomicUsize::new(0));
    let registry_with_counter = |evals: Arc<AtomicUsize>| {
        let mut registry = ModelRegistry::new();
        registry
            .register(
                "counted",
                Box::new(move |x: &[f64]| {
                    evals.fetch_add(1, Ordering::SeqCst);
                    x.iter().sum::<f64>()
                }),
            )
            .expect("registers");
        registry
    };
    let server = Server::start(
        ServerConfig::default(),
        registry_with_counter(Arc::clone(&evals)),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");

    let mut wire = WireRequest::new("monte-carlo", "counted", standard_inputs());
    wire.budget = 64;
    wire.seed = 4242;

    // Reference: the model-evaluation cost and report of ONE run,
    // measured against a sibling registry sharing the same counter.
    let local = registry_with_counter(Arc::clone(&evals));
    let model = local.get("counted").expect("registered");
    let request = wire.to_request(model).expect("valid");
    let direct = wire.resolve_engine().expect("known").propagate(&request).expect("runs");
    let single_run_evals = evals.swap(0, Ordering::SeqCst);
    assert!(single_run_evals > 0, "the engine must evaluate the model");

    let jobs = vec![wire.clone(); 6];
    let outcome = client.propagate_batch(&jobs).expect("batch runs");
    assert_eq!(outcome.reports.len(), 6, "one report per submitted job");
    assert_eq!(outcome.cache_hits, 0);
    assert_eq!(outcome.cache_misses, 1, "six identical jobs are one unique job");
    assert_eq!(
        evals.load(Ordering::SeqCst),
        single_run_evals,
        "identical jobs must collapse to one engine run"
    );
    for report in &outcome.reports {
        assert_eq!(
            json::to_string(report),
            json::to_string(&direct),
            "batch report must be bit-identical to the in-process run"
        );
    }

    // The same batch again: answered wholly from the response cache.
    let again = client.propagate_batch(&jobs).expect("batch runs");
    assert_eq!(again.cache_hits, 1);
    assert_eq!(again.cache_misses, 0);
    assert_eq!(again.reports, outcome.reports);
    assert_eq!(
        evals.load(Ordering::SeqCst),
        single_run_evals,
        "a fully cached batch runs no engine at all"
    );

    let text = client.scrape_metrics().expect("metrics scrape");
    assert_eq!(metric_value(&text, "sysunc_batch_jobs_total"), Some(12));
    server.shutdown();
}

/// `/v1/propagate` is answered as a batch of one job, so both propagate
/// routes share one cache and one account: a job answered on either
/// route is a hit on the other, with the same bytes, and each distinct
/// job runs the engine once. A problem setup the engine refuses answers
/// `400` on both routes with one text, named by its index in a batch.
#[test]
fn both_propagate_routes_share_one_cache_and_one_account() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    let job = |seed: u64| {
        let mut wire = WireRequest::new("monte-carlo", "sum", standard_inputs());
        wire.budget = 256;
        wire.seed = seed;
        wire
    };
    let batch_of = |wires: &[&WireRequest]| {
        let jobs: Vec<String> = wires.iter().map(|w| json::to_string(*w)).collect();
        format!("{{\"jobs\":[{}]}}", jobs.join(","))
    };
    let post = |client: &mut HttpClient, path: &str, body: &str| {
        client.request("POST", path, Some(body)).expect("response arrives")
    };

    // Single request first: the one-job batch of the same job hits.
    let single = post(&mut client, "/v1/propagate", &json::to_string(&job(1)));
    assert_eq!(single.status, 200, "body: {}", single.body_text());
    assert_eq!(single.header("X-Sysunc-Cache"), Some("miss"));
    let batch = post(&mut client, "/v1/propagate/batch", &batch_of(&[&job(1)]));
    assert_eq!(batch.status, 200, "body: {}", batch.body_text());
    assert_eq!(batch.header("X-Sysunc-Cache"), Some("hits=1 misses=0"));
    assert_eq!(batch.body_text(), format!("[{}]", single.body_text()));

    // A fresh seed as a batch first: the single request hits.
    let batch = post(&mut client, "/v1/propagate/batch", &batch_of(&[&job(2)]));
    assert_eq!(batch.status, 200, "body: {}", batch.body_text());
    assert_eq!(batch.header("X-Sysunc-Cache"), Some("hits=0 misses=1"));
    let single = post(&mut client, "/v1/propagate", &json::to_string(&job(2)));
    assert_eq!(single.status, 200, "body: {}", single.body_text());
    assert_eq!(single.header("X-Sysunc-Cache"), Some("hit"));
    assert_eq!(batch.body_text(), format!("[{}]", single.body_text()));

    let text = client.scrape_metrics().expect("metrics scrape");
    assert_eq!(
        metric_value(&text, "sysunc_engine_runs_total{engine=\"monte-carlo\"}"),
        Some(2),
        "two distinct jobs, two runs"
    );
    assert_eq!(metric_value(&text, "sysunc_cache_hits_total"), Some(2));
    assert_eq!(metric_value(&text, "sysunc_cache_misses_total"), Some(2));

    // A quantile level outside (0, 1) is the client's error on both
    // routes, with the same text but for the batch's job label.
    let mut bad = job(3);
    bad.quantile_levels = vec![1.5];
    let single = post(&mut client, "/v1/propagate", &json::to_string(&bad));
    assert_eq!(single.status, 400, "body: {}", single.body_text());
    let batch = post(&mut client, "/v1/propagate/batch", &batch_of(&[&job(1), &bad]));
    assert_eq!(batch.status, 400, "body: {}", batch.body_text());
    let text = batch.body_text();
    assert!(text.starts_with("{\"error\":\"job 1: "), "{text}");
    assert_eq!(text.replacen("job 1: ", "", 1), single.body_text());
    server.shutdown();
}

/// Beyond `max_connections` concurrent connections the acceptor
/// answers `503 + Retry-After` before reading a request; closing a
/// connection frees the slot.
#[test]
fn connection_cap_rejects_excess_connections_with_503() {
    let server = Server::start(
        ServerConfig { max_connections: 2, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let addr = server.addr();

    // Hold both slots with live keep-alive connections — a completed
    // request on each proves the server really accepted them.
    let mut first = HttpClient::connect(addr).expect("connects");
    let mut second = HttpClient::connect(addr).expect("connects");
    assert_eq!(first.get("/v1/engines").expect("served").status, 200);
    assert_eq!(second.get("/v1/engines").expect("served").status, 200);

    // The third connection is refused before its request is read.
    let mut third = HttpClient::connect(addr).expect("TCP connects");
    let refused = third.get("/v1/engines").expect("rejection arrives");
    assert_eq!(refused.status, 503, "body: {}", refused.body_text());
    assert_eq!(refused.header("Retry-After"), Some("1"));

    // Freeing a slot readmits new connections (the acceptor notices
    // the close asynchronously, so poll briefly).
    drop(first);
    drop(third);
    let mut readmitted = None;
    for _ in 0..100 {
        if let Ok(mut client) = HttpClient::connect(addr) {
            if let Ok(response) = client.get("/v1/engines") {
                if response.status == 200 {
                    readmitted = Some(client);
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = readmitted.expect("slot reusable after close");
    let text = client.scrape_metrics().expect("metrics scrape");
    let rejected =
        metric_value(&text, "sysunc_connections_rejected_total").expect("gauge");
    assert!(rejected >= 1, "rejection must be counted, got {rejected}");
    server.shutdown();
}

/// The in-process propagation the wire path is compared against also
/// matches `engine_by_name` resolution — guarding against the catalog
/// and the registry drifting apart.
#[test]
fn engine_catalog_and_wire_resolution_agree() {
    for name in ENGINE_NAMES {
        let by_name = engine_by_name(name);
        assert!(by_name.is_some(), "`{name}` missing from engine_by_name");
        let wire = WireRequest::new(*name, "sum", standard_inputs());
        assert!(wire.resolve_engine().is_ok(), "`{name}` not resolvable from wire");
    }
    assert!(engine_by_name("no-such-engine").is_none());
}

/// Propcheck-driven cache bit-identity: for arbitrary engine / model /
/// budget / seed combinations, the first response and an immediate
/// repeat (a cache hit) are both byte-identical to the same propagation
/// run in-process. One server is reused across all generated cases; a
/// divergence shrinks toward the smallest budget and seed showing it.
#[test]
fn cache_responses_bit_identical_for_arbitrary_requests() {
    use std::cell::RefCell;
    use sysunc::prob::propcheck::{self, u64_range, usize_range};

    let server = Server::start(
        ServerConfig { workers: 2, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let client = RefCell::new(HttpClient::connect(server.addr()).expect("connects"));
    let local = ModelRegistry::standard().expect("registry builds");
    const MODELS: &[&str] = &["sum", "linear-2x3y", "product"];

    propcheck::check(
        "cache_responses_bit_identical_for_arbitrary_requests",
        24,
        (
            usize_range(0..ENGINE_NAMES.len()),
            usize_range(0..MODELS.len()),
            usize_range(16..256),
            u64_range(0..1_000_000),
        ),
        |&(e, m, budget, seed)| {
            let mut wire = WireRequest::new(ENGINE_NAMES[e], MODELS[m], standard_inputs());
            wire.budget = budget;
            wire.seed = seed;
            let model = local.get(MODELS[m]).expect("registered");
            let request = wire.to_request(model).expect("valid");
            let direct =
                wire.resolve_engine().expect("known").propagate(&request).expect("runs");
            let expected = json::to_string(&direct);
            let body = json::to_string(&wire);
            let mut client = client.borrow_mut();
            for round in 0..2 {
                let response = client
                    .request("POST", "/v1/propagate", Some(&body))
                    .expect("response arrives");
                assert_eq!(response.status, 200, "body: {}", response.body_text());
                let verdict = response.header("X-Sysunc-Cache").expect("cache header");
                if round == 1 {
                    assert_eq!(verdict, "hit", "repeat of an identical request hits");
                }
                assert_eq!(
                    response.body_text(),
                    expected,
                    "served response differs from in-process run \
                     (engine {}, model {}, {verdict})",
                    ENGINE_NAMES[e],
                    MODELS[m]
                );
            }
        },
    );
    server.shutdown();
}

/// Sobol's direction numbers stop at 16 inputs. A wider `sobol-qmc`
/// job is refused while decoding, with `400`, instead of failing in the
/// engine after admission with `500`; a batch names the job, and 16
/// inputs still propagate.
#[test]
fn sobol_jobs_over_sixteen_inputs_answer_400_at_decode() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    let wide = |n: usize| {
        let inputs = vec![UncertainInput::Uniform { a: 0.0, b: 1.0 }; n];
        let mut wire = WireRequest::new("sobol-qmc", "sum", inputs);
        wire.budget = 256;
        json::to_string(&wire)
    };
    let refused =
        client.request("POST", "/v1/propagate", Some(&wide(17))).expect("response arrives");
    assert_eq!(refused.status, 400, "body: {}", refused.body_text());
    assert!(
        refused.body_text().contains("engine 'sobol-qmc' takes at most 16 inputs, got 17"),
        "{}",
        refused.body_text()
    );
    let batch = format!("{{\"jobs\":[{},{}]}}", wide(16), wide(17));
    let refused =
        client.request("POST", "/v1/propagate/batch", Some(&batch)).expect("response arrives");
    assert_eq!(refused.status, 400, "body: {}", refused.body_text());
    assert!(refused.body_text().contains("job 1: "), "{}", refused.body_text());
    let accepted =
        client.request("POST", "/v1/propagate", Some(&wide(16))).expect("response arrives");
    assert_eq!(accepted.status, 200, "body: {}", accepted.body_text());
    assert_eq!(healthz(&mut client, "worker_panics"), Some(0));
    server.shutdown();
}

/// Two Normals at the edge of `f64` overflow the evidential engine's
/// output: its focal ends take both infinite signs, and their
/// mass-weighted sum is NaN. The engine reports that as a failed
/// propagation (`500 "propagation failed: …"`), not as a panic.
#[test]
fn evidential_overflow_answers_500_without_a_panic() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    let body = r#"{"engine":"evidential","model":"sum","budget":1000,"inputs":[{"dist":"normal","mu":1e308,"sigma":1e308},{"dist":"normal","mu":1e308,"sigma":1e308}]}"#;
    let failed = client.request("POST", "/v1/propagate", Some(body)).expect("response arrives");
    assert_eq!(failed.status, 500, "body: {}", failed.body_text());
    assert!(failed.body_text().contains("propagation failed: "), "{}", failed.body_text());
    assert_eq!(healthz(&mut client, "worker_panics"), Some(0));
    server.shutdown();
}

/// A request whose input count does not match its model is refused
/// while decoding, with `400`: otherwise a 3-input model sent 2 inputs
/// indexes past its slice (a worker panic, answered `500`), and a
/// 2-input model sent 1 input reads the missing one as 0 (a confident
/// `200` for a different problem).
#[test]
fn wrong_arity_requests_answer_400_without_reaching_a_worker() {
    let server = Server::start(
        ServerConfig::default(),
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("server starts");
    let mut client = HttpClient::connect(server.addr()).expect("connects");
    let wrong = [
        ("orbital-period", standard_inputs()),
        ("missed-hazard", vec![UncertainInput::Uniform { a: 0.1, b: 0.4 }]),
    ];
    for engine in ["monte-carlo", "pce-spectral", "evidential"] {
        for (model, inputs) in &wrong {
            let mut wire = WireRequest::new(engine, *model, inputs.clone());
            wire.budget = 256;
            let response = client
                .request("POST", "/v1/propagate", Some(&json::to_string(&wire)))
                .expect("response arrives");
            assert_eq!(response.status, 400, "{engine}/{model}: {}", response.body_text());
            assert!(
                response.body_text().contains(&format!("model '{model}' takes")),
                "the error names the model's input count: {}",
                response.body_text()
            );
        }
    }

    // In a batch the offending job is named by index.
    let good = WireRequest::new("monte-carlo", "sum", standard_inputs());
    let bad = WireRequest::new("monte-carlo", "orbital-period", standard_inputs());
    let body =
        format!("{{\"jobs\":[{},{}]}}", json::to_string(&good), json::to_string(&bad));
    let batch = client
        .request("POST", "/v1/propagate/batch", Some(&body))
        .expect("response arrives");
    assert_eq!(batch.status, 400, "body: {}", batch.body_text());
    assert!(batch.body_text().contains("job 1: "), "body: {}", batch.body_text());

    // No request reached a model, so no worker panicked.
    let health = client.get("/healthz").expect("healthz answers");
    let doc = json::parse(&health.body_text()).expect("healthz JSON");
    assert_eq!(doc.get("worker_panics").and_then(Json::as_u64), Some(0));

    // The right input count still propagates.
    let mut wire = WireRequest::new(
        "monte-carlo",
        "orbital-period",
        vec![
            UncertainInput::Uniform { a: 0.9, b: 1.1 },
            UncertainInput::Uniform { a: 0.9, b: 1.1 },
            UncertainInput::Uniform { a: 4.0, b: 6.0 },
        ],
    );
    wire.budget = 256;
    assert!(client.propagate(&wire).is_ok(), "a 3-input orbital request propagates");
    server.shutdown();
}
