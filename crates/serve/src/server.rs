//! The propagation server: the request handler the [`transport`]
//! loop runs on every connection thread, with the propagate path behind
//! the admission gate.
//!
//! Connection threads serve the cheap discovery routes inline, look
//! repeated propagate requests up in the content-addressed
//! [`ResponseCache`] (a hit answers without touching the gate), and run
//! cache misses themselves once the [`AdmissionGate`] hands them a run
//! permit. A batch request holds one permit and fans its deduplicated
//! jobs across `core::run_batch` scoped threads.
//!
//! Backpressure: with every run permit and every wait permit taken, the
//! connection thread answers `503` with `Retry-After` immediately.
//! Deadlines: a request still waiting for a run permit at its deadline
//! answers `408`; a running one sees its [`CancelToken`] expire at the
//! engine's next cancel check, which turns the rest of its budget into
//! fast no-ops, and answers `408` then. Panics: the propagation runs
//! under `catch_unwind`, so a panicking model answers `500`, is counted
//! in `/healthz`, and its run permit is returned. The connection cap,
//! keep-alive and shutdown drain are the [`transport`]'s.
//!
//! [`transport`]: crate::transport

use crate::cache::ResponseCache;
use crate::error::Result;
use crate::http::{Request, Response};
use crate::metrics::{route_label, ServerMetrics};
use crate::pool::{AdmissionGate, Refusal};
use crate::router::{
    decode_batch_body, decode_propagate_body, engines_response, error_response,
    healthz_response, metrics_response, models_response, propagate_response, route,
    run_batch_jobs, CancelToken, Route,
};
use crate::shutdown::ShutdownSignal;
use crate::transport::{Event, Handler, Transport};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysunc::{dedup_by_key, Error as SysuncError, ModelRegistry};

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Propagations running at once (run permits of the admission
    /// gate); also the thread count of one batch's `run_batch`.
    pub workers: usize,
    /// Propagate requests allowed to wait for a run permit before
    /// `503`.
    pub queue_capacity: usize,
    /// Deadline per propagate request before `408`.
    pub request_timeout: Duration,
    /// Concurrent connections served before the acceptor answers
    /// `503 + Retry-After` inline (accept-side backpressure).
    pub max_connections: usize,
    /// Response-cache entries across all shards; 0 disables caching.
    pub cache_capacity: usize,
    /// Response-cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Response-cache entry lifetime; `None` means entries never
    /// expire. Bounds staleness when the model registry is mutable.
    pub cache_ttl: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(10),
            max_connections: 128,
            cache_capacity: 1024,
            cache_shards: 8,
            cache_ttl: None,
        }
    }
}

/// Everything a connection thread needs, shared behind an `Arc`: the
/// server's [`Handler`].
struct Ctx {
    registry: ModelRegistry,
    metrics: Arc<ServerMetrics>,
    gate: AdmissionGate,
    /// Propagations that panicked (answered `500`), for `/healthz`.
    panics: AtomicU64,
    cache: ResponseCache,
    config: ServerConfig,
    /// When the server started, backing the `/healthz` uptime report.
    started: Instant,
}

impl Handler for Ctx {
    type Conn = ();

    fn handle(&self, request: &Request, _conn: &mut ()) -> Response {
        match route(&request.method, &request.target) {
            Route::Propagate => propagate(request, self),
            Route::PropagateBatch => propagate_batch(request, self),
            Route::Engines => engines_response(),
            Route::Models => models_response(&self.registry),
            Route::Metrics => metrics_response(&self.metrics),
            // Answered without the gate — a supervisor probe must succeed
            // even when every run and wait permit is taken.
            Route::Healthz => healthz_response(
                self.gate.waiting(),
                self.config.workers,
                self.panics.load(Ordering::Relaxed),
                self.started.elapsed(),
            ),
            Route::MethodNotAllowed => {
                let allow = if route_label(&request.target).starts_with("/v1/propagate") {
                    "POST"
                } else {
                    "GET"
                };
                error_response(405, &format!("method {} not allowed here", request.method))
                    .with_header("Allow", allow)
            }
            Route::NotFound => {
                error_response(404, &format!("no route for '{}'", request.target))
            }
        }
    }

    fn record(&self, event: Event<'_>) {
        let metrics = &self.metrics;
        match event {
            Event::Opened => metrics.connection_opened(),
            Event::Rejected => metrics.connection_rejected(),
            Event::Closed => metrics.connection_closed(),
            Event::Answered { target, status, elapsed } => {
                metrics.record_request(route_label(target), status, elapsed);
            }
            Event::Unreadable { status } => {
                metrics.protocol_error();
                if let Some(status) = status {
                    metrics.record_request("other", status, Duration::ZERO);
                }
            }
        }
    }
}

/// The propagation server. Construct with [`Server::start`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds, starts the [`Transport`] loop with the server's handler,
    /// and returns a handle. The server runs until
    /// [`ServerHandle::shutdown`] (or the handle's drop).
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures as [`crate::ServeError::Io`].
    pub fn start(config: ServerConfig, registry: ModelRegistry) -> Result<ServerHandle> {
        let metrics = Arc::new(ServerMetrics::new());
        let ctx = Arc::new(Ctx {
            registry,
            metrics: Arc::clone(&metrics),
            gate: AdmissionGate::new(config.workers, config.queue_capacity),
            panics: AtomicU64::new(0),
            cache: ResponseCache::with_ttl(
                config.cache_capacity,
                config.cache_shards,
                config.cache_ttl,
            ),
            started: Instant::now(),
            config,
        });
        let transport = Transport::start(
            &ctx.config.addr,
            ctx.config.max_connections,
            ShutdownSignal::new(),
            Arc::clone(&ctx),
        )?;
        Ok(ServerHandle { metrics, transport })
    }
}

/// A running server: its address, metrics, and shutdown control.
/// Dropping it shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    metrics: Arc<ServerMetrics>,
    transport: Transport,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.transport.addr()
    }

    /// The live metrics registry backing `GET /metrics`.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Gracefully stops the server: no new connections, in-flight
    /// requests drain, connection threads join.
    pub fn shutdown(mut self) {
        self.transport.stop();
    }
}

/// Runs `job` on this thread once the admission gate grants a run
/// permit, containing a panic: `Err` carries the ready answer — `503`
/// with every permit taken, `408` when the deadline passes while
/// waiting, `500` (counted for `/healthz`) when `job` panics. The
/// permit is returned on every path.
fn run_admitted<T>(
    ctx: &Ctx,
    deadline: Instant,
    job: impl FnOnce() -> T,
) -> std::result::Result<T, Response> {
    let _permit = ctx.gate.admit(deadline).map_err(|refusal| match refusal {
        Refusal::Full => error_response(503, "server is at capacity; retry shortly")
            .with_header("Retry-After", "1"),
        Refusal::Deadline => error_response(408, "request deadline exceeded"),
    })?;
    catch_unwind(AssertUnwindSafe(job)).map_err(|_| {
        ctx.panics.fetch_add(1, Ordering::Relaxed);
        error_response(500, "propagation worker failed")
    })
}

/// The full propagate path: decode and canonicalize, serve cache hits
/// without touching the gate, otherwise run the propagation on this
/// thread under the gate and the deadline, and populate the cache from
/// successful responses.
fn propagate(request: &Request, ctx: &Ctx) -> Response {
    let (wire, canonical) = match decode_propagate_body(&ctx.registry, &request.body) {
        Ok(decoded) => decoded,
        Err(response) => return *response,
    };
    if let Some(body) = ctx.cache.get(canonical.content_hash(), canonical.bytes()) {
        ctx.metrics.cache_hit();
        return Response::new(200)
            .with_json(body.as_str().to_string())
            .with_header("X-Sysunc-Cache", "hit");
    }
    ctx.metrics.cache_miss();
    let deadline = Instant::now() + ctx.config.request_timeout;
    let token = CancelToken::with_deadline(deadline);
    let response = match run_admitted(ctx, deadline, || {
        propagate_response(&ctx.registry, &wire, &token, &ctx.metrics)
    }) {
        Ok(response) => response,
        Err(refused) => return refused,
    };
    // Only complete reports are cacheable: errors and timeouts are
    // circumstantial, not a function of the request.
    if response.status == 200 {
        let body = String::from_utf8_lossy(&response.body).into_owned();
        let evicted = ctx.cache.insert(
            canonical.content_hash(),
            canonical.bytes().to_string(),
            Arc::new(body),
        );
        ctx.metrics.cache_evicted(evicted);
    }
    response.with_header("X-Sysunc-Cache", "miss")
}

/// The batch propagate path: decode all jobs on this thread, collapse
/// them onto distinct canonical requests, serve what the cache
/// already holds, run the rest under **one** run permit through
/// `core::run_batch`, and assemble the report array in job order from
/// the per-unique bodies — each body the exact bytes single-request
/// serving produces.
fn propagate_batch(request: &Request, ctx: &Ctx) -> Response {
    let jobs = match decode_batch_body(&ctx.registry, &request.body) {
        Ok(jobs) => jobs,
        Err(response) => return *response,
    };
    ctx.metrics.batch_jobs(jobs.len() as u64);

    // Identical canonical requests are the same job: run once, answer
    // many times (engines are deterministic by seed).
    let keys: Vec<&str> = jobs.iter().map(|(_, c)| c.bytes()).collect();
    let (uniques, assignment) = dedup_by_key(&keys);

    let mut bodies: Vec<Option<Arc<String>>> = uniques
        .iter()
        .map(|&j| {
            jobs.get(j).and_then(|(_, canonical)| {
                ctx.cache.get(canonical.content_hash(), canonical.bytes())
            })
        })
        .collect();
    let hits = bodies.iter().filter(|b| b.is_some()).count();
    let misses = bodies.len() - hits;
    for _ in 0..hits {
        ctx.metrics.cache_hit();
    }
    for _ in 0..misses {
        ctx.metrics.cache_miss();
    }

    if misses > 0 {
        let missing: Vec<usize> = bodies
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_none())
            .map(|(u, _)| u)
            .collect();
        let wires: Vec<_> = missing
            .iter()
            .filter_map(|&u| uniques.get(u))
            .filter_map(|&j| jobs.get(j))
            .map(|(wire, _)| wire.clone())
            .collect();
        if wires.len() != missing.len() {
            return error_response(500, "batch bookkeeping lost a unique slot");
        }
        let deadline = Instant::now() + ctx.config.request_timeout;
        let token = CancelToken::with_deadline(deadline);
        let results = match run_admitted(ctx, deadline, || {
            run_batch_jobs(&ctx.registry, &wires, &token, &ctx.metrics, ctx.config.workers)
        }) {
            Ok(results) => results,
            Err(refused) => return refused,
        };
        let results = match results {
            Ok(results) => results,
            // A bind failure names the unique slot; translate back to
            // the original job index for the caller.
            Err((slot, e)) => {
                let job =
                    missing.get(slot).and_then(|&u| uniques.get(u)).copied().unwrap_or(0);
                return error_response(400, &format!("job {job}: {e}"));
            }
        };
        if token.expired() {
            return error_response(408, "request deadline exceeded during execution");
        }
        for (&u, outcome) in missing.iter().zip(results) {
            let job = match uniques.get(u) {
                Some(&j) => j,
                None => return error_response(500, "batch bookkeeping lost a unique slot"),
            };
            match outcome {
                Ok(report) => {
                    let body = Arc::new(sysunc::prob::json::to_string(&report));
                    let canonical = match jobs.get(job) {
                        Some((_, c)) => c,
                        None => {
                            return error_response(500, "batch bookkeeping lost a job");
                        }
                    };
                    let evicted = ctx.cache.insert(
                        canonical.content_hash(),
                        canonical.bytes().to_string(),
                        Arc::clone(&body),
                    );
                    ctx.metrics.cache_evicted(evicted);
                    if let Some(slot) = bodies.get_mut(u) {
                        *slot = Some(body);
                    }
                }
                Err(SysuncError::InvalidInput(msg)) => {
                    return error_response(400, &format!("job {job}: invalid input: {msg}"));
                }
                Err(SysuncError::Unsupported(msg)) => {
                    return error_response(
                        400,
                        &format!("job {job}: unsupported propagation request: {msg}"),
                    );
                }
                Err(e) => {
                    return error_response(
                        500,
                        &format!("job {job}: propagation failed: {e}"),
                    );
                }
            }
        }
    }

    // Fan the unique bodies back out in job order. Bodies are the
    // exact single-request encodings, so concatenation preserves
    // bit-identity per element.
    let mut out = String::with_capacity(bodies.iter().flatten().map(|b| b.len() + 1).sum());
    out.push('[');
    for (i, &slot) in assignment.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match bodies.get(slot).and_then(|b| b.as_deref()) {
            Some(body) => out.push_str(body),
            // Unreachable: every miss was either filled or returned
            // an error above — but never panic in the serving path.
            None => {
                return error_response(500, "batch assembly lost a job body");
            }
        }
    }
    out.push(']');
    Response::new(200)
        .with_json(out)
        .with_header("X-Sysunc-Cache", &format!("hits={hits} misses={misses}"))
}
