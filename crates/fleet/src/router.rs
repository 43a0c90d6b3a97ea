//! The fleet front: a [`Handler`] on serve's transport loop
//! ([`sysunc_serve::transport`]), so it has a shard's connection cap,
//! inline `503`, message limits and drain. Its per-connection state is
//! the pool of backend connections, one per shard.
//!
//! Placement preserves the per-shard response-cache locality that
//! makes sharding pay. A propagate body is decoded as a shard decodes
//! it (serve's [`decode_propagate_body`] over the standard registry
//! every shard builds); its canonical FNV-1a/64 content hash — the key
//! of the shard's LRU cache — modulo the shard count picks the shard,
//! so a repeated request lands where its answer is cached. Batches fold
//! every job's canonical bytes into one hash so the whole batch (and
//! its intra-batch dedup) stays on one shard. A body that does not
//! decode (bad JSON, an unknown engine or model, a wrong input count, a
//! cost over the ceiling) is answered `400` at the front with the bytes
//! a shard would send, and never reaches a shard.
//!
//! Routing waits out restarts until the request deadline: a failed
//! connect is retried and the shard table is re-resolved each attempt,
//! so a request that arrives while its primary shard is mid-restart
//! simply waits out the respawn or rides the ring walk to a fallback
//! shard. A request is *re-sent* at most once: a send that fails on an
//! open backend connection drops that connection and tries again, since
//! the connection may only have gone stale and propagations are
//! deterministic by seed, so a duplicate execution produces identical
//! bytes. A second failed send answers `503`: the request itself may be
//! what kills its shard, and walking it across the fleet would empty
//! every shard's cache.
//!
//! The front answers two routes itself: `GET /healthz` (fleet summary,
//! no child touched) and `GET /metrics` (the `sysunc_fleet_*` series
//! plus every child exposition summed shard-wise). Discovery routes,
//! unknown paths and wrong methods rotate across the shards.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sysunc::wire::fnv1a64;
use sysunc_serve::router::{decode_batch_body, decode_propagate_body, error_response, route};
use sysunc_serve::{Handler, HttpClient, Request, Response, Route};

use crate::metrics::merge_expositions;
use crate::supervisor::Shared;

/// How long one backend connect may take; routing retries (bounded by
/// the request deadline) absorb failures.
const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Pause between routing attempts while a shard restarts.
const RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Failed sends of one request before the front answers `503`: one
/// re-send, no more.
const MAX_FAILED_SENDS: u32 = 2;

/// A pooled connection to one shard, valid for one process generation.
pub(crate) struct Backend {
    generation: u64,
    client: HttpClient,
}

impl Handler for Shared {
    /// The connection's pooled backends, by shard slot.
    type Conn = HashMap<usize, Backend>;

    /// Answers the front's own routes and decode `400`s, and forwards
    /// everything else to the shard its placement hash picks.
    fn handle(&self, request: &Request, backends: &mut Self::Conn) -> Response {
        match placement_hash(request, self) {
            Ok(hash) => forward(hash, request, self, backends),
            Err(answer) => answer,
        }
    }
}

/// The placement key for a request: the canonical content hash for a
/// propagate body (cache locality), one FNV-1a/64 hash over every job's
/// canonical bytes for a batch, and a rotating counter for routes any
/// shard can answer. Routes are classified by serve's own table, so a
/// query string changes neither who answers nor where a body is placed.
/// `Err` carries the answer the front gives itself: its health summary,
/// its merged metrics, or a decode `400`.
fn placement_hash(request: &Request, shared: &Shared) -> Result<u64, Response> {
    match route(&request.method, &request.target) {
        Route::Healthz => Err(fleet_healthz(shared)),
        Route::Metrics => Err(aggregate_metrics(shared)),
        Route::Propagate => decode_propagate_body(&shared.registry, &request.body)
            .map(|(_, canonical)| canonical.content_hash())
            .map_err(|refused| *refused),
        Route::PropagateBatch => {
            let jobs =
                decode_batch_body(&shared.registry, &request.body).map_err(|refused| *refused)?;
            let mut folded = String::new();
            for (_, canonical) in &jobs {
                folded.push_str(canonical.bytes());
                folded.push('\n');
            }
            Ok(fnv1a64(folded.as_bytes()))
        }
        _ => Ok(shared.rotor.fetch_add(1, Ordering::Relaxed)),
    }
}

/// Forwards a request to the shard owning `hash`, retrying connects
/// across shard restarts until the request deadline and re-sending the
/// request at most once. A pooled backend connection is reused only
/// while its process generation matches the shard table — a restart
/// bumps the generation, which retires connections into the dead
/// process.
fn forward(
    hash: u64,
    request: &Request,
    shared: &Shared,
    backends: &mut HashMap<usize, Backend>,
) -> Response {
    let deadline = Instant::now() + shared.config.request_timeout;
    let body = if request.body.is_empty() {
        None
    } else {
        Some(String::from_utf8_lossy(&request.body).into_owned())
    };
    let mut failed_sends = 0;
    loop {
        let Some((slot, view)) = shared.table.healthy_slot_for(hash) else {
            // No healthy shard: wait out a restart, give up at the
            // deadline (or immediately during shutdown).
            if Instant::now() >= deadline || shared.signal.is_triggered() {
                shared.metrics.unroutable();
                return error_response(503, "no healthy shard; retry shortly")
                    .with_header("Retry-After", "1");
            }
            std::thread::sleep(RETRY_PAUSE);
            continue;
        };
        let Some(addr) = view.addr else { continue };
        let pooled_current = backends
            .get(&slot)
            .map(|b| b.generation == view.generation)
            .unwrap_or(false);
        if !pooled_current {
            backends.remove(&slot);
            match HttpClient::connect_with_timeout(addr, BACKEND_CONNECT_TIMEOUT) {
                Ok(mut client) => {
                    client.set_timeout(shared.config.request_timeout);
                    backends.insert(slot, Backend { generation: view.generation, client });
                }
                Err(_) => {
                    shared.metrics.forward_retried();
                    if Instant::now() >= deadline {
                        shared.metrics.unroutable();
                        return error_response(503, "shard unreachable; retry shortly")
                            .with_header("Retry-After", "1");
                    }
                    std::thread::sleep(RETRY_PAUSE);
                    continue;
                }
            }
        }
        let Some(backend) = backends.get_mut(&slot) else { continue };
        match backend.client.request(&request.method, &request.target, body.as_deref()) {
            Ok(response) => {
                shared.metrics.routed(slot);
                return relay(response);
            }
            Err(_) => {
                // The child died (or the response timed out) mid-flight:
                // drop the connection and re-resolve. One re-send is
                // safe — propagations are deterministic by seed.
                backends.remove(&slot);
                shared.metrics.forward_retried();
                failed_sends += 1;
                if failed_sends >= MAX_FAILED_SENDS || Instant::now() >= deadline {
                    shared.metrics.unroutable();
                    return error_response(503, "shard request failed; retry shortly")
                        .with_header("Retry-After", "1");
                }
                std::thread::sleep(RETRY_PAUSE);
            }
        }
    }
}

/// Prepares a shard response for re-serialization to the client:
/// `write_to` appends its own `Content-Length` and `Connection`
/// headers, so the parsed copies must go; everything else
/// (`Content-Type`, `X-Sysunc-Cache`, `Retry-After`, `Allow`, …)
/// relays untouched.
fn relay(mut response: Response) -> Response {
    response.headers.retain(|(name, _)| {
        !name.eq_ignore_ascii_case("content-length")
            && !name.eq_ignore_ascii_case("connection")
    });
    response
}

/// The fleet's own health summary — answered entirely at the front, no
/// child is touched, so it stays honest even mid-restart.
fn fleet_healthz(shared: &Shared) -> Response {
    let views = shared.table.views();
    let healthy = views.iter().filter(|v| v.healthy && v.addr.is_some()).count();
    let status = if healthy == views.len() { "ok" } else { "degraded" };
    Response::new(200).with_json(format!(
        "{{\"status\":\"{status}\",\"shards\":{},\"healthy\":{healthy},\
         \"restarts\":{},\"uptime_micros\":{}}}",
        views.len(),
        shared.metrics.total_restarts(),
        shared.started.elapsed().as_micros(),
    ))
}

/// `GET /metrics` at the front: the `sysunc_fleet_*` series followed
/// by every reachable child's exposition summed shard-wise.
fn aggregate_metrics(shared: &Shared) -> Response {
    let mut texts: Vec<String> = Vec::new();
    for view in shared.table.views() {
        let Some(addr) = view.addr else { continue };
        if !view.healthy {
            continue;
        }
        let scraped = HttpClient::connect_with_timeout(addr, BACKEND_CONNECT_TIMEOUT)
            .and_then(|mut client| client.get("/metrics"));
        if let Ok(response) = scraped {
            if response.status == 200 {
                texts.push(response.body_text());
            }
        }
    }
    let mut out = shared.metrics.render_text();
    out.push_str(&merge_expositions(&texts));
    Response::new(200).with_text(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FleetMetrics;
    use crate::shard::ShardTable;
    use crate::supervisor::FleetConfig;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use sysunc::ModelRegistry;
    use sysunc_serve::http::HttpConn;
    use sysunc_serve::{ShutdownSignal, LIMITS};

    #[test]
    fn a_request_whose_shard_drops_it_is_sent_at_most_twice() {
        // A fake shard that reads each request and hangs up without an
        // answer, as a shard killed by the body would. A connection
        // that sends nothing stops it; it returns the requests it read.
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound address");
        let shard = std::thread::spawn(move || {
            let mut requests = 0;
            for stream in listener.incoming().flatten() {
                match HttpConn::new(stream).read_request(&LIMITS, &mut || false) {
                    Ok(Some(_)) => requests += 1,
                    _ => break,
                }
            }
            requests
        });
        let table = ShardTable::new(1);
        table.install(0, addr);
        let timeout = Duration::from_secs(5);
        let shared = Shared {
            table,
            registry: ModelRegistry::standard().expect("registry builds"),
            metrics: Arc::new(FleetMetrics::new(1)),
            signal: ShutdownSignal::new(),
            config: FleetConfig { request_timeout: timeout, ..FleetConfig::default() },
            rotor: AtomicU64::new(0),
            started: Instant::now(),
        };
        let request = Request {
            method: "POST".into(),
            target: "/v1/propagate".into(),
            minor_version: 1,
            headers: Vec::new(),
            body: b"{}".to_vec(),
        };

        let sent = Instant::now();
        let response = forward(0, &request, &shared, &mut HashMap::new());
        let elapsed = sent.elapsed();
        drop(TcpStream::connect(addr).expect("reaches the fake shard"));
        assert_eq!(shard.join().expect("fake shard runs"), 2, "one send and one re-send");
        assert_eq!(response.status, 503, "{}", response.body_text());
        assert_eq!(response.header("Retry-After"), Some("1"));
        assert!(response.body_text().contains("shard request failed"), "{}", response.body_text());
        assert!(elapsed < timeout, "answered before the deadline, after {elapsed:?}");
        assert_eq!(shared.metrics.unrouted_count(), 1);
        assert_eq!(shared.metrics.forward_retry_count(), 2);
    }
}
