//! Fleet-semantics tests: the multi-process sharded serving layer must
//! tolerate a SIGKILLed shard under load with zero failed client
//! requests, complete in-flight work across a drain-on-shutdown, and
//! route repeated requests so shard caches answer bit-identically to a
//! single-process server. The front runs serve's transport loop, so it
//! refuses excess connections and unreadable requests itself, and it
//! answers bodies a shard would refuse with the shard's `400` without
//! forwarding them.
//!
//! These tests spawn real `sysunc-serve` child processes, so they need
//! the serve binary on disk. `cargo test` does not build another
//! package's binaries, so the tests first run `cargo build -p
//! sysunc-serve` in their own profile: a shard binary left over from
//! older sources would answer with older bits than the in-process
//! server it is compared against. The binary is then discovered via
//! `SYSUNC_SERVE_BIN` or the build tree
//! (`target/{release,debug}/sysunc-serve`); when absent the tests skip
//! loudly instead of failing, so a bare `cargo test` on a fresh
//! checkout stays green.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use sysunc::prob::json;
use sysunc::{ModelRegistry, UncertainInput, WireRequest};
use sysunc_fleet::{locate_serve_bin, Fleet, FleetConfig, FleetHandle};
use sysunc_serve::http::HttpConn;
use sysunc_serve::router::{decode_batch_body, decode_propagate_body, COST_CEILING};
use sysunc_serve::{HttpClient, Response, RetryPolicy, Server, ServerConfig, LIMITS};

/// The serve binary to spawn shards from, rebuilt from the current
/// sources once per test run, or a loud skip.
fn serve_bin() -> Option<std::path::PathBuf> {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = std::process::Command::new(cargo);
        cmd.args(["build", "--quiet", "--offline", "-p", "sysunc-serve"]);
        if !cfg!(debug_assertions) {
            cmd.arg("--release");
        }
        // A failed build falls through to discovery, which skips loudly
        // when no binary exists at all.
        match cmd.status() {
            Ok(status) if status.success() => {}
            other => eprintln!("fleet tests: building sysunc-serve failed: {other:?}"),
        }
    });
    let found = locate_serve_bin();
    if found.is_none() {
        eprintln!(
            "SKIP fleet test: sysunc-serve binary not found — run \
             `cargo build --release -p sysunc-serve` (or set SYSUNC_SERVE_BIN)"
        );
    }
    found
}

/// A fleet config tuned for test latency: fast probes, fast restarts.
fn test_config(shards: usize, serve_bin: std::path::PathBuf) -> FleetConfig {
    FleetConfig {
        shards,
        serve_bin: Some(serve_bin),
        child_workers: 1,
        child_queue: 64,
        probe_interval: Duration::from_millis(25),
        restart_backoff: Duration::from_millis(25),
        request_timeout: Duration::from_secs(30),
        handshake_timeout: Duration::from_secs(30),
        ..FleetConfig::default()
    }
}

fn wire(seed: u64) -> WireRequest {
    let mut wire = WireRequest::new(
        "monte-carlo",
        "linear-2x3y",
        vec![
            UncertainInput::Normal { mu: 1.0, sigma: 0.5 },
            UncertainInput::Uniform { a: 0.0, b: 2.0 },
        ],
    );
    wire.budget = 256;
    wire.seed = seed;
    wire
}

/// Crash tolerance end to end: clients hammer a 2-shard fleet while
/// one shard is SIGKILLed mid-run. Every client request must succeed —
/// the router rides the ring walk and the restart — and the supervisor
/// must record the respawn.
#[test]
fn killing_a_shard_under_load_loses_no_client_requests() {
    let Some(bin) = serve_bin() else { return };
    let fleet = Fleet::start(test_config(2, bin)).expect("fleet starts");
    assert!(fleet.await_healthy(2, Duration::from_secs(10)), "both shards come up");
    let addr = fleet.addr();

    let completed = Arc::new(AtomicUsize::new(0));
    let clients = 4;
    let calls = 12;
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect_with_retry(
                    addr,
                    Duration::from_secs(30),
                    &RetryPolicy::default(),
                )
                .expect("connects to the fleet front");
                for call in 0..calls {
                    // Seeds spread across both shards; no per-call
                    // retry here — the *front* must absorb the crash.
                    let body = json::to_string(&wire((t * 1000 + call) as u64));
                    let response = client
                        .request("POST", "/v1/propagate", Some(&body))
                        .expect("fleet answers despite the crash");
                    assert_eq!(
                        response.status,
                        200,
                        "client {t} call {call} failed: {}",
                        response.body_text()
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Let the load get going, then SIGKILL shard 0 under it.
    while completed.load(Ordering::Relaxed) < clients {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(fleet.kill_shard(0), "crash injection reaches the child");

    for t in threads {
        t.join().expect("client thread saw zero failed requests");
    }
    assert_eq!(completed.load(Ordering::Relaxed), clients * calls);
    assert!(
        fleet.await_healthy(2, Duration::from_secs(10)),
        "the killed shard is respawned"
    );
    assert!(fleet.metrics().total_restarts() >= 1, "the restart was recorded");

    // The fleet healthz reflects the recovered state.
    let mut client = HttpClient::connect(addr).expect("connects");
    let health = client.get("/healthz").expect("healthz answers");
    assert_eq!(health.status, 200);
    let text = health.body_text();
    assert!(text.contains("\"status\":\"ok\""), "recovered fleet is ok: {text}");
    assert!(text.contains("\"healthy\":2"), "{text}");
    fleet.shutdown();
}

/// Drain on shutdown: a batch in flight when `shutdown` is called must
/// complete — the front stops accepting but finishes started work
/// against still-running children before they are drained.
#[test]
fn drain_on_shutdown_completes_the_in_flight_batch() {
    let Some(bin) = serve_bin() else { return };
    let fleet = Fleet::start(test_config(2, bin)).expect("fleet starts");
    assert!(fleet.await_healthy(2, Duration::from_secs(10)), "both shards come up");
    let addr = fleet.addr();

    let worker = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("connects");
        let jobs: Vec<String> =
            (0..24).map(|i| json::to_string(&wire(40_000 + i))).collect();
        let body = format!("{{\"jobs\":[{}]}}", jobs.join(","));
        client
            .request("POST", "/v1/propagate/batch", Some(&body))
            .expect("in-flight batch survives the shutdown")
    });
    // Give the batch time to reach a shard, then shut the fleet down
    // while it is (very likely) still being computed.
    std::thread::sleep(Duration::from_millis(30));
    fleet.shutdown();

    let response = worker.join().expect("batch client thread succeeds");
    assert_eq!(response.status, 200, "drained batch: {}", response.body_text());
    // The batch body is the bare array of per-job reports.
    let doc = json::parse(&response.body_text()).expect("batch body is JSON");
    let results = doc.as_arr();
    assert_eq!(results.map(<[_]>::len), Some(24), "all jobs completed");
}

/// Cache locality through the router: the same request sent twice to
/// the fleet lands on the same shard (content-hash placement), the
/// second answer is a cache hit, and both bodies are bit-identical to
/// what a single-process server returns. Bodies over the cost ceiling
/// answer `400` without a shard restart.
#[test]
fn routed_cache_hits_are_bit_identical_to_single_process() {
    let Some(bin) = serve_bin() else { return };
    let fleet = Fleet::start(test_config(2, bin)).expect("fleet starts");
    assert!(fleet.await_healthy(2, Duration::from_secs(10)), "both shards come up");

    let single = Server::start(
        ServerConfig { workers: 1, ..ServerConfig::default() },
        ModelRegistry::standard().expect("registry builds"),
    )
    .expect("single-process server starts");

    let fleet_client = HttpClient::connect(fleet.addr()).expect("connects");
    let single_client = HttpClient::connect(single.addr()).expect("connects");

    // Propcheck drives the request seeds; both clients and the fleet
    // are reused across cases. `assume` rejects a seed already sent
    // (including during shrinking), so the miss/hit protocol holds for
    // every evaluated case.
    use std::cell::RefCell;
    use sysunc::prob::propcheck::{self, u64_range};
    let fleet_client = RefCell::new(fleet_client);
    let single_client = RefCell::new(single_client);
    let seen = RefCell::new(std::collections::HashSet::new());
    propcheck::check(
        "routed_cache_hits_are_bit_identical_to_single_process",
        6,
        u64_range(0..1_000_000),
        |&seed| {
            propcheck::assume(seen.borrow_mut().insert(seed));
            let body = json::to_string(&wire(seed));
            let mut fleet_client = fleet_client.borrow_mut();
            let first = fleet_client
                .request("POST", "/v1/propagate", Some(&body))
                .expect("first fleet answer");
            assert_eq!(first.status, 200, "{}", first.body_text());
            assert_eq!(first.header("X-Sysunc-Cache"), Some("miss"), "cold shard cache");
            let second = fleet_client
                .request("POST", "/v1/propagate", Some(&body))
                .expect("second fleet answer");
            assert_eq!(
                second.header("X-Sysunc-Cache"),
                Some("hit"),
                "hash placement sends the repeat to the shard that cached it"
            );
            assert_eq!(first.body, second.body, "cache hit is bit-identical");

            let direct = single_client
                .borrow_mut()
                .request("POST", "/v1/propagate", Some(&body))
                .expect("single-process answer");
            assert_eq!(direct.status, 200);
            assert_eq!(
                first.body, direct.body,
                "routed answer matches the single-process bytes (seed {seed})"
            );
        },
    );
    let mut fleet_client = fleet_client.into_inner();

    // The aggregated exposition shows fleet series plus summed child
    // series, and routing placed requests on the shards.
    let metrics = fleet_client.get("/metrics").expect("front metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text();
    assert!(text.contains("sysunc_fleet_requests_routed_total"), "{text}");
    assert!(
        text.contains("sysunc_http_requests_total"),
        "child series are merged into the front exposition"
    );

    // The front classifies routes with serve's table, so a query string
    // changes neither who answers nor where a body is placed.
    let fleet_lines =
        |text: &str| text.lines().filter(|l| l.starts_with("sysunc_fleet_")).count();
    let queried = fleet_client.get("/metrics?x=1").expect("front metrics with a query");
    assert_eq!(queried.status, 200);
    assert_eq!(
        fleet_lines(&queried.body_text()),
        fleet_lines(&text),
        "a query string still reaches the front's aggregated exposition"
    );
    let health = fleet_client.get("/healthz?x=1").expect("front healthz with a query");
    let health = health.body_text();
    assert!(health.contains("\"shards\":2"), "the fleet summary answers: {health}");
    assert!(!health.contains("queue_depth"), "not one shard's health: {health}");
    // Round-robin would alternate the two repeats across the shards, so
    // one of them would miss.
    let body = json::to_string(&wire(2_000_000));
    let first = fleet_client
        .request("POST", "/v1/propagate", Some(&body))
        .expect("first fleet answer");
    assert_eq!(first.header("X-Sysunc-Cache"), Some("miss"), "fresh seed");
    for _ in 0..2 {
        let repeat = fleet_client
            .request("POST", "/v1/propagate?x=1", Some(&body))
            .expect("repeat with a query answers");
        assert_eq!(
            repeat.header("X-Sysunc-Cache"),
            Some("hit"),
            "a query string keeps content-hash placement"
        );
        assert_eq!(repeat.body, first.body);
    }

    // Poison bodies over the cost ceiling are refused by the shard that
    // decodes them, so they cannot crash it and walk the fleet.
    let normal = r#"{"dist":"normal","mu":0,"sigma":1}"#;
    let poison = |engine: &str, inputs: &[&str], extra: &str| {
        format!(r#"{{"engine":"{engine}","model":"sum","inputs":[{}]{extra}}}"#, inputs.join(","))
    };
    let poisons = [
        poison("monte-carlo", &[normal; 2], r#","budget":400000000"#),
        poison("pce-spectral", &[normal; 12], ""),
    ];
    for body in &poisons {
        let refused = fleet_client
            .request("POST", "/v1/propagate", Some(body))
            .expect("the fleet answers");
        assert_eq!(refused.status, 400, "body: {}", refused.body_text());
    }
    assert_eq!(fleet.metrics().total_restarts(), 0, "no shard died");
    single.shutdown();
    fleet.shutdown();
}

/// A 2-shard test fleet with both shards up.
fn healthy_fleet(config: FleetConfig) -> FleetHandle {
    let fleet = Fleet::start(config).expect("fleet starts");
    assert!(fleet.await_healthy(2, Duration::from_secs(10)), "both shards come up");
    fleet
}

/// The sum, over the front's merged exposition, of every series whose
/// line starts with `prefix`.
fn merged_sum(client: &mut HttpClient, prefix: &str) -> u64 {
    let text = client.scrape_metrics().expect("front metrics");
    text.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Sends raw bytes on a fresh connection and reads the one answer.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(bytes).expect("request written");
    HttpConn::new(stream).read_response(&LIMITS, &mut || true).expect("answer arrives")
}

/// The front runs serve's connection cap: with one connection held, a
/// second is refused `503 + Retry-After: 1` before its request is read.
#[test]
fn a_front_at_its_connection_cap_answers_503_with_retry_after() {
    let Some(bin) = serve_bin() else { return };
    let fleet = healthy_fleet(FleetConfig { max_connections: 1, ..test_config(2, bin) });
    let mut held = HttpClient::connect(fleet.addr()).expect("connects");
    assert_eq!(held.get("/v1/engines").expect("served").status, 200, "the slot is taken");
    let mut second = HttpClient::connect(fleet.addr()).expect("TCP connects");
    let refused = second.get("/v1/engines").expect("rejection arrives");
    assert_eq!(refused.status, 503, "body: {}", refused.body_text());
    assert_eq!(refused.header("Retry-After"), Some("1"));
    fleet.shutdown();
}

/// Bytes that are not a request are answered by the front's transport
/// loop, `400` for a malformed request line and `413` for a head over
/// 16 KiB, and no shard sees them.
#[test]
fn the_front_answers_unreadable_requests_itself() {
    let Some(bin) = serve_bin() else { return };
    let fleet = healthy_fleet(test_config(2, bin));
    let mut client = HttpClient::connect(fleet.addr()).expect("connects");
    let protocol_errors = merged_sum(&mut client, "sysunc_protocol_errors_total");

    let malformed = raw_exchange(fleet.addr(), b"NOT-HTTP\r\n\r\n");
    assert_eq!(malformed.status, 400, "body: {}", malformed.body_text());
    let long_head =
        format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(LIMITS.max_head + 1));
    let oversized = raw_exchange(fleet.addr(), long_head.as_bytes());
    assert_eq!(oversized.status, 413, "body: {}", oversized.body_text());

    assert_eq!(
        merged_sum(&mut client, "sysunc_protocol_errors_total"),
        protocol_errors,
        "no shard read the bad bytes"
    );
    fleet.shutdown();
}

/// A body a shard would refuse at decode is refused at the front with
/// the shard's exact bytes, and never reaches a shard.
#[test]
fn undecodable_bodies_answer_400_at_the_front() {
    let Some(bin) = serve_bin() else { return };
    let fleet = healthy_fleet(test_config(2, bin));
    let registry = ModelRegistry::standard().expect("registry builds");
    let mut client = HttpClient::connect(fleet.addr()).expect("connects");
    let served = |client: &mut HttpClient| {
        merged_sum(client, "sysunc_http_requests_total{route=\"/v1/propagate")
    };
    let before = served(&mut client);

    // `orbital-period` reads three inputs.
    let wrong_arity = json::to_string(&WireRequest::new(
        "monte-carlo",
        "orbital-period",
        vec![UncertainInput::Normal { mu: 1.0, sigma: 0.1 }],
    ));
    let refused = client
        .request("POST", "/v1/propagate", Some(&wrong_arity))
        .expect("the front answers");
    assert_eq!(refused.status, 400, "body: {}", refused.body_text());
    let expected = *decode_propagate_body(&registry, wrong_arity.as_bytes()).expect_err("refused");
    assert_eq!(refused.body, expected.body, "serve's exact bytes");

    let mut over = wire(1);
    over.budget = COST_CEILING as usize;
    let batch = format!("{{\"jobs\":[{},{}]}}", json::to_string(&wire(2)), json::to_string(&over));
    let refused = client
        .request("POST", "/v1/propagate/batch", Some(&batch))
        .expect("the front answers");
    assert_eq!(refused.status, 400, "body: {}", refused.body_text());
    let expected = *decode_batch_body(&registry, batch.as_bytes()).expect_err("refused");
    assert_eq!(refused.body, expected.body, "serve's exact bytes, naming job 1");

    assert_eq!(served(&mut client), before, "no shard served a propagate request");
    fleet.shutdown();
}

/// A batch is placed by the hash of all its jobs, so the same batch
/// sent twice lands on the shard that cached every job the first time.
#[test]
fn a_repeated_batch_is_answered_from_one_shards_cache() {
    let Some(bin) = serve_bin() else { return };
    let fleet = healthy_fleet(test_config(2, bin));
    let mut client = HttpClient::connect(fleet.addr()).expect("connects");
    let jobs: Vec<WireRequest> = (0..5).map(|i| wire(70_000 + i)).collect();
    let first = client.propagate_batch(&jobs).expect("first batch");
    assert_eq!((first.cache_hits, first.cache_misses), (0, 5));
    let again = client.propagate_batch(&jobs).expect("repeated batch");
    assert_eq!((again.cache_hits, again.cache_misses), (5, 0), "every job a hit");
    assert_eq!(again.reports, first.reports);
    fleet.shutdown();
}
