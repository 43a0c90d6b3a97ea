//! The propagation server: the request handler the [`transport`]
//! loop runs on every connection thread, with the propagate path behind
//! the admission gate.
//!
//! Connection threads serve the cheap discovery routes inline and
//! answer both propagate routes through one path: `/v1/propagate` is a
//! batch of one job. A request's jobs are deduplicated, looked up in the
//! content-addressed [`ResponseCache`] (a hit answers without touching
//! the gate), and the misses run under one run permit of the
//! [`AdmissionGate`] through `core::run_batch`: on the connection thread
//! itself when that needs one worker, otherwise on scoped threads.
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
    decode_batch_body, decode_propagate_body, engines_response, error_response, healthz_response,
    metrics_response, models_response, route, run_batch_jobs, CancelToken, Route,
};
use crate::shutdown::ShutdownSignal;
use crate::transport::{Event, Handler, Transport};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysunc::{dedup_by_key, CanonicalRequest, Error as SysuncError, ModelRegistry, WireRequest};

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Propagations running at once (run permits of the admission
    /// gate); also the thread count of one batch's `run_batch`, and
    /// the `workers` `/healthz` reports. 0 counts as 1.
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
    pub fn start(mut config: ServerConfig, registry: ModelRegistry) -> Result<ServerHandle> {
        // One run-permit count for the gate, `/healthz` and batches.
        config.workers = config.workers.max(1);
        let metrics = Arc::new(ServerMetrics::new());
        let ctx = Arc::new(Ctx {
            registry,
            metrics: Arc::clone(&metrics),
            gate: AdmissionGate::new(config.workers, config.queue_capacity),
            panics: AtomicU64::new(0),
            cache: ResponseCache::new(config.cache_capacity, config.cache_shards),
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

/// `POST /v1/propagate`: decode, then [`answer`] the job as a batch of
/// one. The cache verdict is `hit` or `miss`.
fn propagate(request: &Request, ctx: &Ctx) -> Response {
    let job = match decode_propagate_body(&ctx.registry, &request.body) {
        Ok(job) => job,
        Err(refused) => return *refused,
    };
    match answer(ctx, std::slice::from_ref(&job), |_| String::new()) {
        Ok(Answer { bodies, hits, .. }) => {
            let body: String = bodies.iter().map(|b| b.as_str()).collect();
            let verdict = if hits > 0 { "hit" } else { "miss" };
            Response::new(200).with_json(body).with_header("X-Sysunc-Cache", verdict)
        }
        Err(refused) => refused,
    }
}

/// `POST /v1/propagate/batch`: decode every job, then [`answer`] them
/// and join the bodies into the report array, in job order. The cache
/// verdict counts distinct jobs: `hits=H misses=M`.
fn propagate_batch(request: &Request, ctx: &Ctx) -> Response {
    let jobs = match decode_batch_body(&ctx.registry, &request.body) {
        Ok(jobs) => jobs,
        Err(refused) => return *refused,
    };
    ctx.metrics.batch_jobs(jobs.len() as u64);
    match answer(ctx, &jobs, |index| format!("job {index}: ")) {
        Ok(Answer { bodies, hits, misses }) => {
            let mut out =
                String::with_capacity(bodies.iter().map(|b| b.len() + 1).sum::<usize>() + 1);
            out.push('[');
            for (i, body) in bodies.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(body);
            }
            out.push(']');
            Response::new(200)
                .with_json(out)
                .with_header("X-Sysunc-Cache", &format!("hits={hits} misses={misses}"))
        }
        Err(refused) => refused,
    }
}

/// The answer to decoded propagate jobs.
struct Answer {
    /// One report body per job, in job order.
    bodies: Vec<Arc<String>>,
    /// Distinct jobs the cache answered.
    hits: usize,
    /// Distinct jobs that ran.
    misses: usize,
}

/// The one propagate path behind both routes. Collapses the jobs onto
/// distinct canonical requests, serves what the cache holds without
/// touching the gate, runs the rest under **one** run permit through
/// `core::run_batch` (on this thread when one worker suffices), and
/// caches each report. Every body is its report's exact encoding, so a
/// batch element is byte-identical to the single-request answer.
///
/// `Err` is the one answer for the whole request: a gate refusal, `408`
/// once the deadline has passed, or the first failing job's `400` or
/// `500`, its message prefixed with `label(job index)`.
fn answer(
    ctx: &Ctx,
    jobs: &[(WireRequest, CanonicalRequest)],
    label: impl Fn(usize) -> String,
) -> std::result::Result<Answer, Response> {
    // Identical canonical requests are the same job: run once, answer
    // many times (engines are deterministic by seed).
    let keys: Vec<&str> = jobs.iter().map(|(_, c)| c.bytes()).collect();
    let (uniques, assignment) = dedup_by_key(&keys);
    // Per distinct job: its cached body, or `None` until it runs.
    let mut slots: Vec<Option<Arc<String>>> = Vec::with_capacity(uniques.len());
    let mut missing = Vec::new();
    for (index, (job, &slot)) in jobs.iter().zip(&assignment).enumerate() {
        if uniques.get(slot) != Some(&index) {
            continue; // a repeat of an earlier job
        }
        let cached = ctx.cache.get(job.1.content_hash(), job.1.bytes());
        if cached.is_none() {
            missing.push((index, job));
        }
        slots.push(cached);
    }
    let misses = missing.len();
    let hits = slots.len() - misses;
    for _ in 0..hits {
        ctx.metrics.cache_hit();
    }
    for _ in 0..misses {
        ctx.metrics.cache_miss();
    }

    if misses > 0 {
        let wires: Vec<(usize, &WireRequest)> =
            missing.iter().map(|&(index, (wire, _))| (index, wire)).collect();
        let deadline = Instant::now() + ctx.config.request_timeout;
        let token = CancelToken::with_deadline(deadline);
        let results = run_admitted(ctx, deadline, || {
            run_batch_jobs(&ctx.registry, &wires, &token, &ctx.metrics, ctx.config.workers)
        })?
        .map_err(|(index, e)| error_response(400, &format!("{}{e}", label(index))))?;
        if token.expired() {
            return Err(error_response(408, "request deadline exceeded during execution"));
        }
        let empty = slots.iter_mut().filter(|slot| slot.is_none());
        for ((slot, &(index, (_, canonical))), outcome) in empty.zip(&missing).zip(results) {
            let report = outcome.map_err(|e| match e {
                SysuncError::InvalidInput(_) | SysuncError::Unsupported(_) => {
                    error_response(400, &format!("{}{e}", label(index)))
                }
                e => error_response(500, &format!("{}propagation failed: {e}", label(index))),
            })?;
            // Only complete reports are cacheable: errors and timeouts
            // are circumstantial, not a function of the request.
            let body = Arc::new(sysunc::prob::json::to_string(&report));
            let evicted = ctx.cache.insert(
                canonical.content_hash(),
                canonical.bytes().to_string(),
                Arc::clone(&body),
            );
            ctx.metrics.cache_evicted(evicted);
            *slot = Some(body);
        }
    }

    let bodies =
        assignment.iter().filter_map(|&slot| slots.get(slot).and_then(Option::clone)).collect();
    Ok(Answer { bodies, hits, misses })
}
