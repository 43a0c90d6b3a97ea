//! Route classification and response construction for the propagation
//! API, the decode-time cost ceiling, and the deadline/cancellation
//! machinery that stops an oversized run early.
//!
//! The route table is fixed:
//!
//! | method | path | handler |
//! |---|---|---|
//! | `POST` | `/v1/propagate` | run a [`WireRequest`] on the connection thread, once admitted |
//! | `POST` | `/v1/propagate/batch` | run many jobs through `run_batch`, deduplicated |
//! | `GET` | `/v1/engines` | engine catalog |
//! | `GET` | `/v1/models` | registered model names |
//! | `GET` | `/metrics` | text exposition of [`ServerMetrics`] |
//! | `GET` | `/healthz` | liveness probe (answered without the admission gate) |
//!
//! Both propagate routes decode into the **canonical request**
//! ([`CanonicalRequest`]): the content-addressed identity the response
//! cache and intra-batch dedup are keyed on. Decoding also prices each
//! job ([`job_cost`]) and refuses one over [`COST_CEILING`] with `400`,
//! before it is admitted or allocates anything.
//!
//! Cancellation is cooperative: [`CancelModel`] wraps the registered
//! model and checks its [`CancelToken`] every [`CANCEL_ROWS`] rows of a
//! batched evaluation; on scalar evaluations it checks the cancel flag
//! on every call but reads the clock only on every [`CANCEL_ROWS`]-th
//! one. It returns `NaN` once cancelled or past the deadline. Engines
//! then finish almost immediately (their quantile reduction rejects the
//! NaN sample), and the request is answered with `408` instead of
//! burning the rest of its budget. Stages that make no model call
//! (design generation, the inverse-CDF transform, the sort, PCE's
//! surrogate sampling) do not check; the cost ceiling bounds how long
//! they can run.

use crate::error::ServeError;
use crate::http::Response;
use crate::metrics::ServerMetrics;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use sysunc::prob::json::{self, writer::JsonWriter, FromJson, Json};
use sysunc::{
    run_batch, BatchJob, CanonicalRequest, Error as SysuncError, EvidentialEngine, Model,
    ModelRegistry, PropagationReport, Propagator, SpectralEngine, UncertainInput, WireRequest,
    ENGINE_NAMES,
};

/// Where a request landed in the route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/propagate`.
    Propagate,
    /// `POST /v1/propagate/batch`.
    PropagateBatch,
    /// `GET /v1/engines`.
    Engines,
    /// `GET /v1/models`.
    Models,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// A known path with the wrong method.
    MethodNotAllowed,
    /// An unknown path.
    NotFound,
}

/// Classifies a request line against the route table. Query strings
/// are ignored for matching.
pub fn route(method: &str, target: &str) -> Route {
    let path = target.split('?').next().unwrap_or(target);
    match (method, path) {
        ("POST", "/v1/propagate") => Route::Propagate,
        ("POST", "/v1/propagate/batch") => Route::PropagateBatch,
        ("GET", "/v1/engines") => Route::Engines,
        ("GET", "/v1/models") => Route::Models,
        ("GET", "/metrics") => Route::Metrics,
        ("GET", "/healthz") => Route::Healthz,
        (
            _,
            "/v1/propagate" | "/v1/propagate/batch" | "/v1/engines" | "/v1/models" | "/metrics"
            | "/healthz",
        ) => Route::MethodNotAllowed,
        _ => Route::NotFound,
    }
}

/// A shared cancel flag plus a hard deadline.
#[derive(Debug, Clone)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Instant,
}

impl CancelToken {
    /// A token that expires at `deadline` (or earlier, when cancelled).
    pub fn with_deadline(deadline: Instant) -> Self {
        Self { cancelled: Arc::new(AtomicBool::new(false)), deadline }
    }

    /// Cancels the token from any thread.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token was cancelled or its deadline passed. A
    /// passed deadline latches the token cancelled, so later flag
    /// checks see it without reading the clock.
    pub fn expired(&self) -> bool {
        if self.cancelled() {
            return true;
        }
        let late = Instant::now() >= self.deadline;
        if late {
            self.cancel();
        }
        late
    }

    /// Whether the token was cancelled, or an earlier
    /// [`CancelToken::expired`] saw its deadline pass. Reads no clock.
    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// Evaluations between two deadline checks of [`CancelModel`]: rows
/// of a batched evaluation, or scalar calls. A slow model runs at most
/// this many evaluations past the deadline.
pub const CANCEL_ROWS: usize = 64;

/// A [`Model`] adapter that aborts evaluation once its token expires,
/// returning `NaN` so engine statistics fail fast instead of running
/// out the remaining budget.
pub struct CancelModel<'m> {
    inner: &'m dyn Model,
    token: CancelToken,
    /// Scalar calls so far; the clock is read when it is a multiple of
    /// [`CANCEL_ROWS`].
    calls: AtomicUsize,
}

impl<'m> CancelModel<'m> {
    /// Wraps `inner` under the given token.
    pub fn new(inner: &'m dyn Model, token: CancelToken) -> Self {
        Self { inner, token, calls: AtomicUsize::new(0) }
    }
}

impl Model for CancelModel<'_> {
    fn eval(&self, x: &[f64]) -> f64 {
        // The flag is one atomic load; the clock costs several times a
        // cheap model call, so it is read once per CANCEL_ROWS calls.
        let clock_due = self.calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(CANCEL_ROWS);
        if self.token.cancelled() || (clock_due && self.token.expired()) {
            f64::NAN
        } else {
            self.inner.eval(x)
        }
    }

    fn eval_batch(&self, columns: &[&[f64]], out: &mut [f64]) {
        // One token check per CANCEL_ROWS rows instead of per sample.
        // Each block forwards to the inner batch kernel on row
        // sub-slices; overrides must be bit-identical to `eval`, so the
        // served outputs stay bit-identical to the unwrapped model's.
        let mut rows: Vec<&[f64]> = Vec::with_capacity(columns.len());
        for (block, out) in out.chunks_mut(CANCEL_ROWS).enumerate() {
            if self.token.expired() {
                out.fill(f64::NAN);
                continue;
            }
            let lo = block * CANCEL_ROWS;
            rows.clear();
            // A column shorter than `lo` passes on empty, so the inner
            // model fails exactly as it would on the whole chunk.
            rows.extend(columns.iter().map(|c| c.get(lo..).unwrap_or_default()));
            self.inner.eval_batch(&rows, out);
        }
    }
}

/// Builds the JSON error body `{"error": …, "status": …}`.
pub fn error_response(status: u16, message: &str) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error").string(message);
    w.key("status").u64(u64::from(status));
    w.end_object();
    let body = w.finish().unwrap_or_else(|_| String::from("{}"));
    Response::new(status).with_json(body)
}

/// `GET /v1/engines`: the fixed engine catalog.
pub fn engines_response() -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("engines").begin_array();
    for name in ENGINE_NAMES {
        w.string(name);
    }
    w.end_array();
    w.end_object();
    Response::new(200).with_json(w.finish().unwrap_or_else(|_| String::from("{}")))
}

/// `GET /v1/models`: the names registered in the model registry.
pub fn models_response(registry: &ModelRegistry) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("models").begin_array();
    for name in registry.names() {
        w.string(name);
    }
    w.end_array();
    w.end_object();
    Response::new(200).with_json(w.finish().unwrap_or_else(|_| String::from("{}")))
}

/// `GET /metrics`: the Prometheus-style text exposition.
pub fn metrics_response(metrics: &ServerMetrics) -> Response {
    Response::new(200).with_text(metrics.render_text())
}

/// `GET /healthz`: a liveness snapshot answered on the connection
/// thread without the admission gate, so a supervisor probe succeeds
/// even when every run and wait permit is taken. Reports the requests
/// waiting for a run permit (`queue_depth`), the run permit count
/// (`workers`), propagations that panicked so far (`worker_panics`),
/// and the server's uptime.
pub fn healthz_response(
    queue_depth: usize,
    workers: usize,
    worker_panics: u64,
    uptime: std::time::Duration,
) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("status").string("ok");
    w.key("queue_depth").u64(queue_depth as u64);
    w.key("workers").u64(workers as u64);
    w.key("worker_panics").u64(worker_panics);
    w.key("uptime_micros").u64(uptime.as_micros().min(u128::from(u64::MAX)) as u64);
    w.end_object();
    Response::new(200).with_json(w.finish().unwrap_or_else(|_| String::from("{}")))
}

/// The most work one propagate job may ask for, in [`job_cost`] units
/// (sampled values). Decoding refuses a costlier job with `400`.
///
/// It bounds memory and how late a `408` can be: a sampling job at the
/// ceiling holds at most two 16 MiB design matrices, and a job at the
/// ceiling ran for 0.06–0.22 s in a release build on a 2-vCPU VM
/// (PROTOCOL.md gives the measured lateness).
pub const COST_CEILING: u64 = 1 << 21;

/// Polynomial terms the spectral engine projects or evaluates per cost
/// unit, at one grid node or surrogate sample.
const PCE_TERMS_PER_UNIT: u64 = 6;

/// Fixed cost of one spectral surrogate sample (germ transform and
/// scratch vectors), in cost units.
const PCE_SAMPLE_BASE: u64 = 5;

/// The work `wire` asks of its engine, in sampled values, computed in
/// saturating arithmetic from the request alone. One unit is about one
/// Monte Carlo sampled value; the weights below were fitted to release
/// timings so that every engine at the ceiling runs about as long:
///
/// - `monte-carlo`, `sobol-qmc`: `budget × (inputs + 1)` — each input
///   column is generated and transformed, and the output column is
///   evaluated and summed, and its quantiles selected (fitted when the
///   engines still sorted it, so now a conservative price);
/// - `latin-hypercube`: 3/2 of that, for the permutation behind each
///   stratified column;
/// - `pce-spectral`, with `t` expansion terms (degree 5): `6^inputs`
///   grid nodes at `⌈t/6⌉` each, plus `max(budget, 1024)` surrogate
///   samples at `5 + ⌈t/6⌉` each;
/// - `evidential`: the focal product times `2^inputs + 1` corner calls.
///
/// An unknown engine costs 0; canonicalization refuses it.
pub fn job_cost(wire: &WireRequest) -> u64 {
    let inputs = wire.inputs.len() as u64;
    let dim = u32::try_from(inputs).unwrap_or(u32::MAX);
    // `PropagationRequest::with_budget` runs at least one sample.
    let budget = (wire.budget as u64).max(1);
    match wire.engine.as_str() {
        "monte-carlo" | "sobol-qmc" => budget.saturating_mul(inputs.saturating_add(1)),
        "latin-hypercube" => {
            budget.saturating_mul(inputs.saturating_add(1)).saturating_mul(3).div_ceil(2)
        }
        "pce-spectral" => {
            let degree = SpectralEngine::default().degree as u64;
            let per_term = pce_terms(inputs, degree).div_ceil(PCE_TERMS_PER_UNIT);
            let nodes = (degree + 1).saturating_pow(dim);
            let samples = budget.max(1024);
            nodes
                .saturating_mul(per_term)
                .saturating_add(samples.saturating_mul(per_term.saturating_add(PCE_SAMPLE_BASE)))
        }
        "evidential" => {
            // `propagate_model` condenses each input to at most the
            // dim-th root of the budget (but at least 2) focal
            // elements: an interval input has one, a distribution
            // `cells`, merged in equal groups.
            let cells = EvidentialEngine::default().cells as u64;
            let root = (budget as f64).powf(1.0 / f64::from(dim.max(1))).floor().max(2.0) as u64;
            let focal = wire.inputs.iter().fold(1u64, |product, input| {
                let size = match input {
                    UncertainInput::Interval { .. } => 1,
                    _ if cells <= root => cells,
                    _ => cells.div_ceil(cells.div_ceil(root)),
                };
                product.saturating_mul(size)
            });
            focal.saturating_mul(2u64.saturating_pow(dim).saturating_add(1))
        }
        _ => 0,
    }
}

/// Terms of a total-degree polynomial chaos expansion:
/// `C(inputs + degree, degree)`, saturating.
fn pce_terms(inputs: u64, degree: u64) -> u64 {
    (1..=degree).fold(1u64, |c, k| c.saturating_mul(inputs.saturating_add(k)) / k)
}

/// Validates engine and model names of a decoded wire request, the
/// input count against the model's, and its cost against
/// [`COST_CEILING`], and derives its canonical identity; `context`
/// prefixes error messages (e.g. `"job 3: "`) so batch failures name
/// the offending job.
fn canonicalize_wire(
    registry: &ModelRegistry,
    wire: &WireRequest,
    context: &str,
) -> std::result::Result<CanonicalRequest, Box<Response>> {
    if registry.get(&wire.model).is_none() {
        return Err(Box::new(error_response(
            400,
            &format!(
                "{context}unknown model '{}'; known models: {}",
                wire.model,
                registry.names().join(", ")
            ),
        )));
    }
    // A model never sees a wrong-length input vector: it would index
    // past the end (a worker panic) or read the gap as zeros.
    registry
        .check_inputs(&wire.model, wire.inputs.len())
        .map_err(|e| Box::new(error_response(400, &format!("{context}{e}"))))?;
    // Nothing has been allocated for the run yet: an over-ceiling job
    // is refused before admission, so it can neither exhaust memory
    // nor hold a run permit past its deadline.
    let cost = job_cost(wire);
    if cost > COST_CEILING {
        return Err(Box::new(error_response(
            400,
            &format!(
                "{context}request costs {cost} sampled values, over the ceiling of \
                 {COST_CEILING}; lower the budget or the input count"
            ),
        )));
    }
    // Canonicalization also validates the engine name (interning it
    // against the catalog) and rejects non-finite float members.
    CanonicalRequest::from_wire(wire)
        .map_err(|e| Box::new(error_response(400, &format!("{context}{e}"))))
}

/// Decodes and pre-validates a propagate body on the connection
/// thread, so malformed or over-ceiling requests are refused without
/// taking a run permit. Returns the wire request together with its
/// canonical identity (the response-cache key).
///
/// # Errors
///
/// Returns the ready-to-send error response (status 400) when the
/// body is not a valid [`WireRequest`], names an unknown engine or
/// model, carries an input count the model does not read, or costs
/// more than [`COST_CEILING`].
pub fn decode_propagate_body(
    registry: &ModelRegistry,
    body: &[u8],
) -> std::result::Result<(WireRequest, CanonicalRequest), Box<Response>> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Box::new(error_response(400, "request body is not UTF-8")))?;
    let wire: WireRequest = json::from_str(text)
        .map_err(|e| Box::new(error_response(400, &format!("invalid request: {e}"))))?;
    let canonical = canonicalize_wire(registry, &wire, "")?;
    Ok((wire, canonical))
}

/// Decodes and pre-validates a batch-propagate body
/// (`{"jobs": [<wire request>, …]}`) on the connection thread. Every
/// job is validated before any runs: one bad job refuses the whole
/// batch, named by index.
///
/// # Errors
///
/// Returns the ready-to-send error response (status 400) for
/// non-UTF-8 / non-JSON bodies, a missing or empty `jobs` array, or
/// any individually invalid job.
pub fn decode_batch_body(
    registry: &ModelRegistry,
    body: &[u8],
) -> std::result::Result<Vec<(WireRequest, CanonicalRequest)>, Box<Response>> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Box::new(error_response(400, "request body is not UTF-8")))?;
    let doc = json::parse(text)
        .map_err(|e| Box::new(error_response(400, &format!("invalid request: {e}"))))?;
    let jobs = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| Box::new(error_response(400, "body must carry a 'jobs' array")))?;
    if jobs.is_empty() {
        return Err(Box::new(error_response(400, "'jobs' must not be empty")));
    }
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let context = format!("job {i}: ");
            let wire = WireRequest::from_json(job).map_err(|e| {
                Box::new(error_response(400, &format!("{context}invalid request: {e}")))
            })?;
            let canonical = canonicalize_wire(registry, &wire, &context)?;
            Ok((wire, canonical))
        })
        .collect()
}

/// Runs one pre-validated propagation on the calling thread and
/// renders the response: `200` with the report, `408` when the token
/// expired mid-run, `400` for invalid problem setups, `500` for
/// internal engine failures.
pub fn propagate_response(
    registry: &ModelRegistry,
    wire: &WireRequest,
    token: &CancelToken,
    metrics: &ServerMetrics,
) -> Response {
    if token.expired() {
        return error_response(408, "request deadline exceeded before execution");
    }
    let Some(model) = registry.get(&wire.model) else {
        return error_response(400, &format!("unknown model '{}'", wire.model));
    };
    let engine = match wire.resolve_engine() {
        Ok(engine) => engine,
        Err(e) => return error_response(400, &e.to_string()),
    };
    let guarded = CancelModel::new(model, token.clone());
    let request = match wire.to_request(&guarded) {
        Ok(request) => request,
        Err(e) => return error_response(400, &e.to_string()),
    };
    let started = Instant::now();
    let outcome = engine.propagate(&request);
    if token.expired() {
        return error_response(408, "request deadline exceeded during execution");
    }
    match outcome {
        Ok(report) => {
            metrics.record_engine(report.engine, started.elapsed());
            Response::new(200).with_json(json::to_string(&report))
        }
        Err(SysuncError::InvalidInput(msg)) => {
            error_response(400, &format!("invalid input: {msg}"))
        }
        Err(SysuncError::Unsupported(msg)) => {
            error_response(400, &format!("unsupported propagation request: {msg}"))
        }
        Err(e) => error_response(500, &format!("propagation failed: {e}")),
    }
}

/// A [`Propagator`] wrapper that feeds per-run engine metrics, so
/// batch execution accounts runs exactly like single-request serving,
/// and that skips a job whose token expired before it started.
struct RecordedEngine<'a> {
    inner: Box<dyn Propagator + Send + Sync>,
    metrics: &'a ServerMetrics,
    token: &'a CancelToken,
}

impl Propagator for RecordedEngine<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn means(&self) -> sysunc::taxonomy::Means {
        self.inner.means()
    }

    fn propagate(
        &self,
        request: &sysunc::PropagationRequest<'_>,
    ) -> sysunc::Result<PropagationReport> {
        // Design generation and the transform make no model call, so a
        // job started late would run them in full: refuse it instead,
        // and the batch is only as late as the jobs already running.
        if self.token.expired() {
            return Err(SysuncError::InvalidInput(
                "request deadline exceeded before the job started".into(),
            ));
        }
        let started = Instant::now();
        let outcome = self.inner.propagate(request);
        if let Ok(report) = &outcome {
            self.metrics.record_engine(report.engine, started.elapsed());
        }
        outcome
    }
}

/// Runs pre-validated wire jobs through [`run_batch`] under one cancel
/// token, preserving order. Each model evaluation goes through a
/// [`CancelModel`] guard, a job that would start after the token
/// expired returns an error without running, and each successful run
/// is recorded in the engine metrics with its own latency — exactly
/// like the single-request path, so the produced reports (and their
/// JSON encodings) are bit-identical to per-request serving.
///
/// # Errors
///
/// Returns `(job_index, error)` when a job fails to *bind* (unknown
/// engine/model, invalid quantiles) — the whole batch is refused
/// before anything runs. Per-job *runtime* failures come back in the
/// inner results.
pub fn run_batch_jobs(
    registry: &ModelRegistry,
    wires: &[WireRequest],
    token: &CancelToken,
    metrics: &ServerMetrics,
    threads: usize,
) -> std::result::Result<
    Vec<std::result::Result<PropagationReport, SysuncError>>,
    (usize, SysuncError),
> {
    let mut engines: Vec<RecordedEngine<'_>> = Vec::with_capacity(wires.len());
    let mut guards: Vec<CancelModel<'_>> = Vec::with_capacity(wires.len());
    for (i, wire) in wires.iter().enumerate() {
        engines.push(RecordedEngine {
            inner: wire.resolve_engine().map_err(|e| (i, e))?,
            metrics,
            token,
        });
        let model = registry.get(&wire.model).ok_or_else(|| {
            (i, SysuncError::InvalidInput(format!("unknown model '{}'", wire.model)))
        })?;
        guards.push(CancelModel::new(model, token.clone()));
    }
    let mut requests = Vec::with_capacity(wires.len());
    for (i, (wire, guard)) in wires.iter().zip(&guards).enumerate() {
        requests.push(wire.to_request(guard).map_err(|e| (i, e))?);
    }
    let jobs: Vec<BatchJob<'_, '_>> = engines
        .iter()
        .map(|e| e as &dyn Propagator)
        .zip(requests.iter())
        .collect();
    Ok(run_batch(&jobs, threads))
}

/// Maps a fatal read-side error onto the response that should be
/// attempted before closing the connection (`None` when the peer is
/// already gone and writing is pointless).
pub fn read_error_response(e: &ServeError) -> Option<Response> {
    match e {
        ServeError::Protocol(msg) => Some(error_response(400, msg)),
        ServeError::TooLarge { part, limit } => Some(error_response(
            413,
            &format!("message {part} exceeds the {limit}-byte limit"),
        )),
        ServeError::Io(_) | ServeError::Closed | ServeError::Timeout => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use sysunc::UncertainInput;

    fn wire(engine: &str, model: &str) -> WireRequest {
        WireRequest::new(
            engine,
            model,
            vec![UncertainInput::Uniform { a: 0.0, b: 1.0 }],
        )
    }

    fn far_future() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn route_table_matches_methods_and_paths() {
        assert_eq!(route("POST", "/v1/propagate"), Route::Propagate);
        assert_eq!(route("POST", "/v1/propagate/batch"), Route::PropagateBatch);
        assert_eq!(route("GET", "/v1/propagate/batch"), Route::MethodNotAllowed);
        assert_eq!(route("GET", "/v1/engines"), Route::Engines);
        assert_eq!(route("GET", "/v1/models"), Route::Models);
        assert_eq!(route("GET", "/metrics?verbose=1"), Route::Metrics);
        assert_eq!(route("GET", "/healthz"), Route::Healthz);
        assert_eq!(route("POST", "/healthz"), Route::MethodNotAllowed);
        assert_eq!(route("GET", "/v1/propagate"), Route::MethodNotAllowed);
        assert_eq!(route("DELETE", "/metrics"), Route::MethodNotAllowed);
        assert_eq!(route("GET", "/nope"), Route::NotFound);
    }

    #[test]
    fn healthz_response_reports_the_snapshot_without_a_pool_slot() {
        let resp = healthz_response(3, 4, 1, Duration::from_millis(1500));
        assert_eq!(resp.status, 200);
        let v = json::parse(&resp.body_text()).expect("json");
        assert_eq!(
            v.get("status").and_then(|j| j.as_str().map(str::to_string)),
            Some("ok".into())
        );
        assert_eq!(v.get("queue_depth").and_then(|j| j.as_u64()), Some(3));
        assert_eq!(v.get("workers").and_then(|j| j.as_u64()), Some(4));
        assert_eq!(v.get("worker_panics").and_then(|j| j.as_u64()), Some(1));
        assert_eq!(v.get("uptime_micros").and_then(|j| j.as_u64()), Some(1_500_000));
    }

    #[test]
    fn discovery_responses_list_the_catalogs() {
        let registry = ModelRegistry::standard().expect("builds");
        let engines = engines_response();
        assert_eq!(engines.status, 200);
        let v = json::parse(&engines.body_text()).expect("json");
        let listed = v.get("engines").and_then(|j| j.as_arr()).expect("array");
        assert_eq!(listed.len(), ENGINE_NAMES.len());
        let models = models_response(&registry);
        assert!(models.body_text().contains("\"orbital-period\""));
    }

    #[test]
    fn decode_rejects_bad_bodies_with_400_and_accepts_good_ones() {
        let registry = ModelRegistry::standard().expect("builds");
        for bad in [
            &b"\xff\xfe"[..],
            b"not json",
            b"{\"engine\":\"monte-carlo\"}",
            br#"{"engine":"warp","model":"sum","inputs":[{"dist":"uniform","a":0.0,"b":1.0}]}"#,
            br#"{"engine":"monte-carlo","model":"warp","inputs":[{"dist":"uniform","a":0.0,"b":1.0}]}"#,
        ] {
            let resp = *decode_propagate_body(&registry, bad).expect_err("must refuse");
            assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(bad));
        }
        let good = json::to_string(&wire("monte-carlo", "sum"));
        let (decoded, canonical) =
            decode_propagate_body(&registry, good.as_bytes()).expect("valid body");
        assert_eq!(decoded.model, "sum");
        assert_eq!(canonical.engine(), "monte-carlo");
    }

    #[test]
    fn batch_decode_validates_every_job_and_names_the_bad_one() {
        let registry = ModelRegistry::standard().expect("builds");
        for (bad, needle) in [
            (String::from("not json"), "invalid request"),
            (String::from("{\"jobs\":[]}"), "must not be empty"),
            (String::from("{\"reports\":[]}"), "'jobs' array"),
            (
                format!(
                    "{{\"jobs\":[{},{}]}}",
                    json::to_string(&wire("monte-carlo", "sum")),
                    json::to_string(&wire("warp", "sum")),
                ),
                "job 1",
            ),
        ] {
            let resp =
                *decode_batch_body(&registry, bad.as_bytes()).expect_err("must refuse");
            assert_eq!(resp.status, 400, "{bad}");
            assert!(
                resp.body_text().contains(needle),
                "expected '{needle}' in: {}",
                resp.body_text()
            );
        }
        let good = format!(
            "{{\"jobs\":[{},{}]}}",
            json::to_string(&wire("monte-carlo", "sum")),
            json::to_string(&wire("sobol-qmc", "product")),
        );
        let jobs = decode_batch_body(&registry, good.as_bytes()).expect("valid batch");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].1.engine(), "sobol-qmc");
    }

    #[test]
    fn batch_runs_are_bit_identical_to_single_request_serving() {
        let registry = ModelRegistry::standard().expect("builds");
        let metrics = ServerMetrics::new();
        let wires = vec![wire("monte-carlo", "sum"), wire("latin-hypercube", "product")];
        let token = CancelToken::with_deadline(far_future());
        let results = run_batch_jobs(&registry, &wires, &token, &metrics, 2)
            .expect("batch binds");
        assert_eq!(results.len(), 2);
        for (w, outcome) in wires.iter().zip(&results) {
            let report = outcome.as_ref().expect("job runs");
            let single = propagate_response(&registry, w, &token, &metrics);
            assert_eq!(single.status, 200);
            assert_eq!(
                json::to_string(report),
                single.body_text(),
                "batch body must match the single-request bytes"
            );
        }
        // Both paths recorded engine runs identically (1 batch + 1
        // single run per engine).
        assert_eq!(metrics.engine_count("monte-carlo"), 2);
        assert_eq!(metrics.engine_count("latin-hypercube"), 2);
    }

    #[test]
    fn batch_bind_failures_name_the_offending_job() {
        let registry = ModelRegistry::standard().expect("builds");
        let metrics = ServerMetrics::new();
        let mut bad = wire("monte-carlo", "sum");
        bad.quantile_levels = vec![1.5];
        let wires = vec![wire("monte-carlo", "sum"), bad];
        let token = CancelToken::with_deadline(far_future());
        let err = run_batch_jobs(&registry, &wires, &token, &metrics, 2)
            .expect_err("bad quantiles refuse the batch");
        assert_eq!(err.0, 1, "second job is the offender");
        assert_eq!(metrics.engine_count("monte-carlo"), 0, "nothing ran");
    }

    #[test]
    fn propagate_matches_the_in_process_engine_bit_for_bit() {
        let registry = ModelRegistry::standard().expect("builds");
        let metrics = ServerMetrics::new();
        let wire = wire("latin-hypercube", "sum");
        let token = CancelToken::with_deadline(far_future());
        let resp = propagate_response(&registry, &wire, &token, &metrics);
        assert_eq!(resp.status, 200);
        let served: sysunc::PropagationReport =
            json::from_str(&resp.body_text()).expect("report json");
        let model = registry.get("sum").expect("registered");
        let direct = wire
            .resolve_engine()
            .expect("known")
            .propagate(&wire.to_request(model).expect("valid"))
            .expect("runs");
        assert_eq!(served, direct);
        assert_eq!(metrics.engine_count("latin-hypercube"), 1);
    }

    #[test]
    fn an_expired_token_yields_408_not_a_report() {
        let registry = ModelRegistry::standard().expect("builds");
        let metrics = ServerMetrics::new();
        let mut w = wire("monte-carlo", "sum");
        w.budget = 200_000;
        let token = CancelToken::with_deadline(far_future());
        token.cancel();
        let resp = propagate_response(&registry, &w, &token, &metrics);
        assert_eq!(resp.status, 408);
        assert_eq!(metrics.engine_count("monte-carlo"), 0);
    }

    #[test]
    fn cancel_model_turns_evaluations_into_nan() {
        let inner = |x: &[f64]| x[0] * 2.0;
        let token = CancelToken::with_deadline(far_future());
        let guarded = CancelModel::new(&inner, token.clone());
        assert_eq!(guarded.eval(&[3.0]), 6.0);
        token.cancel();
        assert!(guarded.eval(&[3.0]).is_nan());
    }

    #[test]
    fn cancel_model_reads_the_clock_every_64_scalar_calls() {
        // The deadline passes during call 10. Calls 11 to 64 do not read
        // the clock and run; call 65 reads it, latches the token, and
        // every call from then on answers NaN.
        let deadline = Instant::now() + Duration::from_millis(200);
        let token = CancelToken::with_deadline(deadline);
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let slow_tenth = |x: &[f64]| {
            if calls.fetch_add(1, Ordering::SeqCst) == 9 {
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            }
            x[0]
        };
        let guarded = CancelModel::new(&slow_tenth, token.clone());
        let answers: Vec<f64> = (0..200).map(|i| guarded.eval(&[i as f64])).collect();
        assert_eq!(calls.load(Ordering::SeqCst), CANCEL_ROWS, "inner evaluations");
        assert!(answers[..CANCEL_ROWS].iter().all(|y| !y.is_nan()));
        assert!(answers[CANCEL_ROWS..].iter().all(|y| y.is_nan()));
        assert!(token.cancelled(), "the passed deadline latched the token");
    }

    #[test]
    fn cancel_model_checks_every_64_rows_and_forwards_bit_identical_rows() {
        let registry = ModelRegistry::standard().expect("builds");
        let model = registry.get("orbital-period").expect("registered");
        let rows = 1000;
        let columns: Vec<Vec<f64>> = (0..3)
            .map(|j| (0..rows).map(|i| 1.0 + (i * (j + 2)) as f64 / 997.0).collect())
            .collect();
        let cols: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let mut direct = vec![0.0; rows];
        model.eval_batch(&cols, &mut direct);
        let mut guarded = vec![0.0; rows];
        CancelModel::new(model, CancelToken::with_deadline(far_future()))
            .eval_batch(&cols, &mut guarded);
        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&guarded), bits(&direct), "sub-slicing keeps every bit");

        // A model that cancels its own token on the 10th evaluation:
        // the rest of that 64-row block runs, every later row is NaN.
        let token = CancelToken::with_deadline(far_future());
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let cancelling = |x: &[f64]| {
            if calls.fetch_add(1, Ordering::SeqCst) == 9 {
                token.cancel();
            }
            x[0]
        };
        let mut out = vec![0.0; rows];
        CancelModel::new(&cancelling, token.clone()).eval_batch(&cols, &mut out);
        assert_eq!(calls.load(Ordering::SeqCst), CANCEL_ROWS);
        assert!(out[..CANCEL_ROWS].iter().all(|y| !y.is_nan()));
        assert!(out[CANCEL_ROWS..].iter().all(|y| y.is_nan()));
    }

    #[test]
    fn cancel_model_forwards_column_kernels_bit_identically_on_ragged_lengths() {
        // The registry's column kernels (`sum`, `product`, `linear-2x3y`)
        // see each 64-row block as a sub-slice; a last block shorter than
        // CANCEL_ROWS must still match `eval` row by row.
        let registry = ModelRegistry::standard().expect("builds");
        let values = [-0.0, 0.0, f64::INFINITY, f64::NAN, 5e-324, 1.5, -3.25, 0.1, 1.0 / 3.0, 0.7];
        for (name, widths) in [("sum", 1..=5), ("product", 1..=5), ("linear-2x3y", 2..=2)] {
            let model = registry.get(name).expect("registered");
            for width in widths {
                for rows in [1, 63, 65, 130, 1000] {
                    assert_ne!(rows % CANCEL_ROWS, 0);
                    let column = |j: usize| -> Vec<f64> {
                        (0..rows).map(|i| values[(i * (j + 3) + j) % values.len()]).collect()
                    };
                    let columns: Vec<Vec<f64>> = (0..width).map(column).collect();
                    let cols: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                    let mut guarded = vec![7.0; rows];
                    CancelModel::new(model, CancelToken::with_deadline(far_future()))
                        .eval_batch(&cols, &mut guarded);
                    for (i, y) in guarded.iter().enumerate() {
                        let row: Vec<f64> = columns.iter().map(|c| c[i]).collect();
                        assert_eq!(
                            y.to_bits(),
                            model.eval(&row).to_bits(),
                            "{name}, {width} columns, {rows} rows, row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_jobs_past_the_deadline_do_not_start() {
        let registry = ModelRegistry::standard().expect("builds");
        let metrics = ServerMetrics::new();
        // Without quantile levels a run over NaN outputs still reports,
        // so only a job that never started comes back as an error.
        let wires: Vec<WireRequest> = ["latin-hypercube", "monte-carlo"]
            .iter()
            .map(|engine| WireRequest { quantile_levels: Vec::new(), ..wire(engine, "sum") })
            .collect();
        let token = CancelToken::with_deadline(Instant::now());
        let results =
            run_batch_jobs(&registry, &wires, &token, &metrics, 2).expect("batch binds");
        assert!(results.iter().all(Result::is_err), "no job ran");
        assert_eq!(metrics.engine_count("latin-hypercube"), 0);
        assert_eq!(metrics.engine_count("monte-carlo"), 0);
    }

    /// A job priced just over the ceiling, on every engine.
    fn over_the_ceiling(engine: &str) -> WireRequest {
        let normal = || UncertainInput::Normal { mu: 0.0, sigma: 1.0 };
        let mut w = WireRequest::new(engine, "sum", vec![normal(); 2]);
        w.budget = match engine {
            "latin-hypercube" => (COST_CEILING as usize * 2).div_ceil(9) + 1,
            "pce-spectral" => (COST_CEILING as usize) / 9 + 1,
            _ => (COST_CEILING as usize) / 3 + 1,
        };
        if engine == "evidential" {
            // 12 inputs: 2^12 focal elements of 2^12 + 1 corner calls.
            w.inputs = vec![normal(); 12];
            w.budget = 1;
        }
        w
    }

    #[test]
    fn job_cost_prices_each_engine() {
        let normal = UncertainInput::Normal { mu: 0.0, sigma: 1.0 };
        let interval = UncertainInput::Interval { lo: 0.0, hi: 1.0 };
        let priced = |engine: &str, inputs: Vec<UncertainInput>, budget: usize| {
            let mut w = WireRequest::new(engine, "sum", inputs);
            w.budget = budget;
            job_cost(&w)
        };
        assert_eq!(priced("monte-carlo", vec![normal; 2], 4096), 3 * 4096);
        assert_eq!(priced("sobol-qmc", vec![normal; 3], 0), 4, "budget 0 runs one sample");
        assert_eq!(priced("latin-hypercube", vec![normal; 2], 4096), 3 * 4096 * 3 / 2);
        // Degree 5 in 2 inputs: 21 terms (4 units), 36 nodes, and at
        // least 1,024 surrogate samples at 5 + 4 units.
        assert_eq!(priced("pce-spectral", vec![normal; 2], 16), 36 * 4 + 1024 * 9);
        // 16,384 = 128² so each input condenses to 32 / ⌈32/128⌉ = 32
        // focal elements, the interval to 1; 2^3 + 1 corner calls each.
        assert_eq!(
            priced("evidential", vec![normal, normal, interval], 128 * 128 * 128),
            32 * 32 * 9
        );
        // A root below the cell count merges cells in equal groups:
        // ⌊16384^(1/3)⌋ = 25 → 32 / ⌈32/25⌉ = 16 per distribution.
        assert_eq!(priced("evidential", vec![normal, normal, interval], 16_384), 16 * 16 * 9);
        assert_eq!(priced("monte-carlo", vec![normal; 2], usize::MAX), u64::MAX, "saturates");
        assert_eq!(priced("warp", vec![normal], 4096), 0, "unknown engines are refused later");
        for engine in ENGINE_NAMES {
            assert!(job_cost(&over_the_ceiling(engine)) > COST_CEILING, "{engine}");
        }
    }

    #[test]
    fn over_ceiling_jobs_are_refused_at_decode_and_named_in_a_batch() {
        let registry = ModelRegistry::standard().expect("builds");
        for engine in ENGINE_NAMES {
            let body = json::to_string(&over_the_ceiling(engine));
            let resp = *decode_propagate_body(&registry, body.as_bytes()).expect_err(engine);
            assert_eq!(resp.status, 400, "{engine}");
            assert!(resp.body_text().contains("over the ceiling"), "{}", resp.body_text());
        }
        // Exactly at the ceiling is accepted.
        let mut at = wire("monte-carlo", "sum");
        at.budget = COST_CEILING as usize / 2;
        assert_eq!(job_cost(&at), COST_CEILING);
        assert!(decode_propagate_body(&registry, json::to_string(&at).as_bytes()).is_ok());

        let body = format!(
            "{{\"jobs\":[{},{}]}}",
            json::to_string(&wire("monte-carlo", "sum")),
            json::to_string(&over_the_ceiling("pce-spectral")),
        );
        let resp = *decode_batch_body(&registry, body.as_bytes()).expect_err("refused");
        assert_eq!(resp.status, 400);
        let text = resp.body_text();
        assert!(text.starts_with("{\"error\":\"job 1: request costs"), "{text}");
    }

    #[test]
    fn read_errors_map_to_write_attempts_only_when_useful() {
        assert_eq!(
            read_error_response(&ServeError::Protocol("x".into())).map(|r| r.status),
            Some(400)
        );
        assert_eq!(
            read_error_response(&ServeError::TooLarge { part: "body", limit: 9 })
                .map(|r| r.status),
            Some(413)
        );
        assert!(read_error_response(&ServeError::Closed).is_none());
        assert!(read_error_response(&ServeError::Timeout).is_none());
    }

    #[test]
    fn invalid_problem_setups_are_400_not_500() {
        let registry = ModelRegistry::standard().expect("builds");
        let metrics = ServerMetrics::new();
        let mut w = wire("monte-carlo", "sum");
        w.quantile_levels = vec![1.5];
        let token = CancelToken::with_deadline(far_future());
        let resp = propagate_response(&registry, &w, &token, &metrics);
        assert_eq!(resp.status, 400);
    }
}
