//! Fleet smoke test: boot a 2-shard process fleet, drive it with
//! concurrent clients, SIGKILL one shard mid-run, and verify the
//! paper's fault-tolerance loop end to end — zero failed requests, a
//! recorded restart, bit-identical routed cache hits, and an
//! aggregated metrics exposition. This is the multi-process path CI
//! exercises (see `ci.sh`); client, router, and supervisor are all
//! in-tree.
//!
//! Spawning shards needs the serve binary on disk: run
//! `cargo build --release -p sysunc-serve` first (CI's tier-1 build
//! provides it), then `cargo run --release --example fleet_smoke`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sysunc::prob::json;
use sysunc::{UncertainInput, WireRequest};
use sysunc_fleet::{Fleet, FleetConfig};
use sysunc_serve::{HttpClient, RetryPolicy};

fn wire(seed: u64) -> WireRequest {
    let mut wire = WireRequest::new(
        "monte-carlo",
        "linear-2x3y",
        vec![
            UncertainInput::Normal { mu: 1.0, sigma: 0.5 },
            UncertainInput::Uniform { a: 0.0, b: 2.0 },
        ],
    );
    wire.budget = 1024;
    wire.seed = seed;
    wire
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. Boot: two shards, fast probes so recovery is visible quickly.
    // ------------------------------------------------------------------
    let fleet = Fleet::start(FleetConfig {
        shards: 2,
        probe_interval: Duration::from_millis(25),
        restart_backoff: Duration::from_millis(25),
        request_timeout: Duration::from_secs(30),
        ..FleetConfig::default()
    })?;
    if !fleet.await_healthy(2, Duration::from_secs(10)) {
        return Err("shards did not become healthy".into());
    }
    let addr = fleet.addr();
    println!("== 2-shard fleet on {addr}, shards {:?} ==", fleet.shard_addrs());

    // ------------------------------------------------------------------
    // 2. Load + crash: clients hammer the front while shard 0 dies.
    //    Each client holds its second call until the kill, so the kill
    //    always lands under load: the whole load takes only a few
    //    milliseconds and could otherwise end before the kill.
    // ------------------------------------------------------------------
    let completed = Arc::new(AtomicUsize::new(0));
    let killed = Arc::new(AtomicBool::new(false));
    let (clients, calls) = (4, 10);
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let completed = Arc::clone(&completed);
            let killed = Arc::clone(&killed);
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = HttpClient::connect_with_retry(
                    addr,
                    Duration::from_secs(30),
                    &RetryPolicy::default(),
                )
                .map_err(|e| e.to_string())?;
                for call in 0..calls {
                    while call == 1 && !killed.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let body = json::to_string(&wire((t * 1000 + call) as u64));
                    let response = client
                        .request("POST", "/v1/propagate", Some(&body))
                        .map_err(|e| format!("client {t} call {call}: {e}"))?;
                    if response.status != 200 {
                        return Err(format!(
                            "client {t} call {call}: status {}",
                            response.status
                        ));
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        })
        .collect();

    while completed.load(Ordering::Relaxed) < clients {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("== SIGKILL shard 0 under load ==");
    if !fleet.kill_shard(0) {
        return Err("crash injection found no child in slot 0".into());
    }
    killed.store(true, Ordering::SeqCst);

    for t in threads {
        t.join().expect("client thread")?;
    }
    let total = completed.load(Ordering::Relaxed);
    println!("clients done: {total}/{} requests ok, 0 failed", clients * calls);
    if total != clients * calls {
        return Err("lost client requests".into());
    }

    // ------------------------------------------------------------------
    // 3. Recovery: the supervisor restarts the shard and records it.
    // ------------------------------------------------------------------
    if !fleet.await_healthy(2, Duration::from_secs(10)) {
        return Err("killed shard was not restarted".into());
    }
    let restarts = fleet.metrics().total_restarts();
    println!("supervisor recorded {restarts} restart(s)");
    if restarts < 1 {
        return Err("restart not recorded".into());
    }

    // ------------------------------------------------------------------
    // 4. Cache locality: a repeated request lands on the same shard
    //    and the hit is bit-identical to the miss.
    // ------------------------------------------------------------------
    let mut client = HttpClient::connect(addr)?;
    let body = json::to_string(&wire(424242));
    let first = client.request("POST", "/v1/propagate", Some(&body))?;
    let second = client.request("POST", "/v1/propagate", Some(&body))?;
    println!(
        "repeat routing: first={} second={}",
        first.header("X-Sysunc-Cache").unwrap_or("?"),
        second.header("X-Sysunc-Cache").unwrap_or("?"),
    );
    if second.header("X-Sysunc-Cache") != Some("hit") || first.body != second.body {
        return Err("hash placement lost cache locality".into());
    }

    // ------------------------------------------------------------------
    // 5. Fleet-wide health and metrics.
    // ------------------------------------------------------------------
    let health = client.get("/healthz")?;
    println!("healthz: {}", health.body_text());
    if health.status != 200 || !health.body_text().contains("\"healthy\":2") {
        return Err("fleet healthz does not report a recovered fleet".into());
    }
    let metrics = client.get("/metrics")?;
    let text = metrics.body_text();
    for series in ["sysunc_fleet_requests_routed_total", "sysunc_http_requests_total"] {
        if !text.contains(series) {
            return Err(format!("aggregated exposition lacks {series}").into());
        }
    }
    println!(
        "metrics: {} fleet + merged child series lines",
        text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count()
    );

    fleet.shutdown();
    println!("== fleet drained, smoke test ok ==");
    Ok(())
}
