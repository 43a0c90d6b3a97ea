//! The fleet front: terminates client connections and places every
//! request on a shard by content hash.
//!
//! Placement preserves the per-shard response-cache locality that
//! makes sharding pay: a propagate body reduces to its
//! [`CanonicalRequest`] FNV-1a/64 content hash — the same identity the
//! child keys its LRU cache on — and `hash % shards` picks the shard,
//! so a repeated request always lands where its answer is already
//! cached. Batches fold every job's canonical bytes into one hash so
//! the whole batch (and its intra-batch dedup) stays on one shard.
//! Bodies that do not canonicalize are placed round-robin and the
//! shard renders the `400` — error rendering stays single-sourced in
//! serve.
//!
//! Forwarding is retried until the request deadline: a transport error
//! invalidates the pooled backend connection, and the shard table is
//! re-resolved each attempt, so a request that arrives while its
//! primary shard is mid-restart simply waits out the respawn or rides
//! the ring walk to a fallback shard. Retrying a propagate is safe —
//! propagations are deterministic by seed, so a duplicate execution
//! produces identical bytes.
//!
//! The front answers two routes itself: `GET /healthz` (fleet summary,
//! no child touched) and `GET /metrics` (the `sysunc_fleet_*` series
//! plus every child exposition summed shard-wise).

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sysunc::prob::json::{self, FromJson, Json};
use sysunc::wire::fnv1a64;
use sysunc::{CanonicalRequest, WireRequest};
use sysunc_serve::http::HttpConn;
use sysunc_serve::router::{error_response, read_error_response, route};
use sysunc_serve::{ConnectionLimiter, HttpClient, Request, Response, Route, ServeError};

use crate::metrics::merge_expositions;
use crate::supervisor::Shared;

/// How long one backend connect may take; routing retries (bounded by
/// the request deadline) absorb failures.
const BACKEND_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Pause between routing attempts while a shard restarts.
const RETRY_PAUSE: Duration = Duration::from_millis(10);

/// A pooled connection to one shard, valid for one process generation.
struct Backend {
    generation: u64,
    client: HttpClient,
}

/// The front accept loop: thread-per-connection behind a connection
/// cap, exactly like the serve acceptor, shutting down when the fleet
/// signal trips.
pub(crate) fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let limiter = ConnectionLimiter::new(shared.config.max_connections);
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.signal.is_triggered() {
            break;
        }
        let Ok(stream) = stream else { continue };
        connections.retain(|h| !h.is_finished());
        let Some(permit) = limiter.try_acquire() else {
            reject_connection(stream);
            continue;
        };
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("sysunc-fleet-conn".into())
            .spawn(move || {
                let _permit = permit;
                handle_connection(stream, &conn_shared);
            });
        if let Ok(handle) = spawned {
            connections.push(handle);
        }
    }
    // In-flight requests finish against still-running children before
    // the supervisor starts draining them.
    for handle in connections {
        let _ = handle.join();
    }
}

/// Answers a connection refused at the cap: `503 + Retry-After`, then
/// close, bounded by a short write timeout.
fn reject_connection(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let response = error_response(503, "fleet connection limit reached; retry shortly")
        .with_header("Retry-After", "1");
    let _ = response.write_to(&mut stream, false);
}

/// One client connection: keep-alive request loop, each request routed
/// to a shard over this connection's pooled backend clients.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_nodelay(true);
    let mut conn = HttpConn::new(stream);
    let mut backends: HashMap<usize, Backend> = HashMap::new();
    loop {
        let mut should_abort = || shared.signal.is_triggered();
        match conn.read_request(&shared.config.limits, &mut should_abort) {
            Ok(Some(request)) => {
                let response = dispatch(&request, shared, &mut backends);
                let keep_alive =
                    request.wants_keep_alive() && !shared.signal.is_triggered();
                let wrote = response.write_to(conn.stream_mut(), keep_alive).is_ok();
                if !keep_alive || !wrote {
                    break;
                }
            }
            // Peer hung up between requests.
            Ok(None) => break,
            // Shutdown while idle or mid-read.
            Err(ServeError::Timeout) => break,
            Err(e) => {
                if let Some(response) = read_error_response(&e) {
                    let _ = response.write_to(conn.stream_mut(), false);
                }
                break;
            }
        }
    }
}

/// Routes one request: the two fleet-answered routes, then hash
/// placement and forwarding for everything else. Routes are classified
/// by serve's own table, so a query string changes neither who answers
/// nor where a body is placed; unknown paths and wrong methods are
/// forwarded for the shard to render its `404`/`405`.
fn dispatch(
    request: &Request,
    shared: &Arc<Shared>,
    backends: &mut HashMap<usize, Backend>,
) -> Response {
    let route = route(&request.method, &request.target);
    match route {
        Route::Healthz => fleet_healthz(shared),
        Route::Metrics => aggregate_metrics(shared),
        _ => {
            let hash = placement_hash(route, request, shared);
            forward(hash, request, shared, backends)
        }
    }
}

/// The placement key for a request: the canonical content hash for
/// propagate bodies (cache locality), a folded per-job hash for
/// batches, and a rotating counter for everything else — discovery
/// routes any shard can answer, and bodies that fail to canonicalize
/// (the shard renders the 400).
fn placement_hash(route: Route, request: &Request, shared: &Arc<Shared>) -> u64 {
    let hashed = match route {
        Route::Propagate => propagate_hash(&request.body),
        Route::PropagateBatch => batch_hash(&request.body),
        _ => None,
    };
    hashed.unwrap_or_else(|| shared.rotor.fetch_add(1, Ordering::Relaxed))
}

/// The canonical content hash of one propagate body, when it parses.
fn propagate_hash(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let wire: WireRequest = json::from_str(text).ok()?;
    Some(CanonicalRequest::from_wire(&wire).ok()?.content_hash())
}

/// One hash for a whole batch: every job's canonical bytes folded
/// through FNV-1a/64, so identical batches land on the same shard and
/// intra-batch dedup stays intact.
fn batch_hash(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = json::parse(text).ok()?;
    let jobs = doc.get("jobs").and_then(Json::as_arr)?;
    if jobs.is_empty() {
        return None;
    }
    let mut folded = String::new();
    for job in jobs {
        let wire = WireRequest::from_json(job).ok()?;
        let canonical = CanonicalRequest::from_wire(&wire).ok()?;
        folded.push_str(canonical.bytes());
        folded.push('\n');
    }
    Some(fnv1a64(folded.as_bytes()))
}

/// Forwards a request to the shard owning `hash`, retrying across
/// shard restarts until the request deadline. A pooled backend
/// connection is reused only while its process generation matches the
/// shard table — a restart bumps the generation, which retires
/// connections into the dead process.
fn forward(
    hash: u64,
    request: &Request,
    shared: &Arc<Shared>,
    backends: &mut HashMap<usize, Backend>,
) -> Response {
    let deadline = Instant::now() + shared.config.request_timeout;
    let body = if request.body.is_empty() {
        None
    } else {
        Some(String::from_utf8_lossy(&request.body).into_owned())
    };
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
                // drop the connection and re-resolve. Retrying is safe —
                // propagations are deterministic by seed.
                backends.remove(&slot);
                shared.metrics.forward_retried();
                if Instant::now() >= deadline {
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
fn fleet_healthz(shared: &Arc<Shared>) -> Response {
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
fn aggregate_metrics(shared: &Arc<Shared>) -> Response {
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
