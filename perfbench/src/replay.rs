//! The in-process replay behind the traced run.
//!
//! It pushes the workload's generated requests through the program's
//! public functions in the order the server calls them — `read_request`
//! over the request bytes, decode, canonicalize, cache get,
//! `to_request`, `generate_into`, `quantile_fill`, `eval_batch`,
//! reduce/sort, encode, cache insert, `write_to` — each call a child
//! span of one per-request root. The whole-engine `propagate` is timed
//! alongside (after the root closes), so the part of the engine no
//! stage covers is measured rather than assumed, and its report must
//! equal the staged one.

use crate::trace::Tracer;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use sysunc::evidence::{propagate_model, DsStructure, Interval};
use sysunc::pce::{ChaosExpansion, PceInput};
use sysunc::prob::dist::{Beta, Continuous, Exponential, Normal, Uniform};
use sysunc::prob::json;
use sysunc::prob::rng::{SeedableRng, StdRng};
use sysunc::prob::stats::{RunningStats, SortedSample};
use sysunc::sampling::{Design, LatinHypercubeDesign, RandomDesign, SoaMatrix, SobolDesign};
use sysunc::{
    dedup_by_key, propagate_chunked, run_batch, CanonicalRequest, ChunkOptions, EvidentialEngine,
    Model, ModelRegistry, PropagationReport, PropagationRequest, Propagator, SpectralEngine,
    UncertainInput, WireRequest, CHUNK_WIDTH,
};
use sysunc_fleet::ShardTable;
use sysunc_serve::http::{HttpConn, Limits};
use sysunc_serve::router::decode_batch_body;
use sysunc_serve::{Response, ResponseCache, ServerConfig};

/// The raw HTTP/1.1 bytes `HttpClient::request` sends for a POST.
pub fn raw_post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: sysunc\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Calls of `ShardTable::place` per placement span.
const PLACE_REPEAT: u64 = 64;

/// Stage spans whose sum the whole engine call is compared against.
const STAGES: &[&str] = &[
    "sampling.design.random",
    "sampling.design.lhs",
    "sampling.design.sobol",
    "prob.dist.normal.quantile",
    "prob.dist.uniform.quantile",
    "prob.dist.exponential.quantile",
    "prob.dist.beta.quantile",
    "model.sum.eval",
    "model.linear-2x3y.eval",
    "model.product.eval",
    "model.orbital-period.eval",
    "model.missed-hazard.eval",
    "core.propagator.reduce",
    "prob.stats.sort",
];

fn engine_span(name: &str) -> &'static str {
    match name {
        "monte-carlo" => "core.propagator.monte-carlo",
        "latin-hypercube" => "core.propagator.latin-hypercube",
        "sobol-qmc" => "core.propagator.sobol-qmc",
        "pce-spectral" => "core.propagator.pce-spectral",
        _ => "core.propagator.evidential",
    }
}

fn model_span(name: &str) -> &'static str {
    match name {
        "sum" => "model.sum.eval",
        "linear-2x3y" => "model.linear-2x3y.eval",
        "product" => "model.product.eval",
        "orbital-period" => "model.orbital-period.eval",
        "missed-hazard" => "model.missed-hazard.eval",
        _ => "model.other.eval",
    }
}

fn dist_span(input: &UncertainInput) -> &'static str {
    match input {
        UncertainInput::Normal { .. } => "prob.dist.normal.quantile",
        UncertainInput::Uniform { .. } => "prob.dist.uniform.quantile",
        UncertainInput::Exponential { .. } => "prob.dist.exponential.quantile",
        UncertainInput::Beta { .. } => "prob.dist.beta.quantile",
        UncertainInput::Interval { .. } => "prob.dist.interval.quantile",
    }
}

/// The sampling design an engine runs, with its span name.
fn design_for(engine: &str) -> Option<(Box<dyn Design>, &'static str)> {
    match engine {
        "monte-carlo" => Some((Box::new(RandomDesign), "sampling.design.random")),
        "latin-hypercube" => Some((Box::new(LatinHypercubeDesign), "sampling.design.lhs")),
        "sobol-qmc" => Some((Box::new(SobolDesign::default()), "sampling.design.sobol")),
        _ => None,
    }
}

/// Renders a library error for the benchmark's `String` errors.
fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn continuous(input: &UncertainInput) -> Result<Box<dyn Continuous>, String> {
    Ok(match *input {
        UncertainInput::Normal { mu, sigma } => Box::new(Normal::new(mu, sigma).map_err(err)?),
        UncertainInput::Uniform { a, b } => Box::new(Uniform::new(a, b).map_err(err)?),
        UncertainInput::Exponential { rate } => Box::new(Exponential::new(rate).map_err(err)?),
        UncertainInput::Beta { alpha, beta } => Box::new(Beta::new(alpha, beta).map_err(err)?),
        UncertainInput::Interval { .. } => return Err("interval inputs do not sample".into()),
    })
}

fn pce_input(input: &UncertainInput) -> Result<PceInput, String> {
    Ok(match *input {
        UncertainInput::Normal { mu, sigma } => PceInput::Normal { mu, sigma },
        UncertainInput::Uniform { a, b } => PceInput::Uniform { a, b },
        UncertainInput::Exponential { rate } => PceInput::Exponential { rate },
        UncertainInput::Beta { alpha, beta } => PceInput::Beta { alpha, beta },
        UncertainInput::Interval { .. } => return Err("interval inputs have no germ".into()),
    })
}

/// A [`Propagator`] that adds each run's wall time to a counter.
struct Timed<'a> {
    inner: Box<dyn Propagator + Send + Sync>,
    spent_ns: &'a AtomicU64,
}

impl Propagator for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn means(&self) -> sysunc::taxonomy::Means {
        self.inner.means()
    }

    fn propagate(&self, request: &PropagationRequest<'_>) -> sysunc::Result<PropagationReport> {
        let started = Instant::now();
        let out = self.inner.propagate(request);
        self.spent_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// A staged engine run waiting for its whole-engine comparison.
struct Pending {
    wire: WireRequest,
    staged: PropagationReport,
    /// Summed stage time of the staged run, in ns.
    stage_ns: u64,
}

/// Replays requests in process, recording spans and the figures that
/// are not span times.
pub struct Replay<'r> {
    /// Every span recorded.
    pub tracer: Tracer,
    registry: &'r ModelRegistry,
    cache: ResponseCache,
    table: ShardTable,
    next_req: u64,
    /// Per-request roots replayed.
    pub requests: u64,
    /// Replays whose outcome disagreed with the program's own answer.
    pub mismatches: u64,
    /// Whole-engine time minus stage time, in ns, per serial sampling run.
    pub unaccounted_ns: Vec<u64>,
    /// Σ job wall time inside `run_batch`, in ns.
    pub batch_job_ns: u64,
    /// Σ `run_batch` wall time × usable threads, in ns.
    pub batch_capacity_ns: u64,
    /// Jobs and distinct jobs seen by batch replays.
    pub batch_jobs: (u64, u64),
    /// Σ budget of evidential runs, for corner calls per budget unit.
    pub evidence_budget: u64,
}

impl<'r> Replay<'r> {
    /// A replay with the server's default cache shape.
    pub fn new(registry: &'r ModelRegistry) -> Self {
        let config = ServerConfig::default();
        Self {
            tracer: Tracer::default(),
            registry,
            cache: ResponseCache::new(config.cache_capacity, config.cache_shards),
            table: ShardTable::new(2),
            next_req: 0,
            requests: 0,
            mismatches: 0,
            unaccounted_ns: Vec::new(),
            batch_job_ns: 0,
            batch_capacity_ns: 0,
            batch_jobs: (0, 0),
            evidence_budget: 0,
        }
    }

    fn begin(&mut self) -> (usize, u64) {
        self.next_req += 1;
        self.requests += 1;
        (
            self.tracer.open("request", None, self.next_req),
            self.next_req,
        )
    }

    /// One `POST /v1/propagate` through the serve path, or with `fleet`
    /// through the fleet front and a shard: the front parses,
    /// canonicalizes and places the body, the shard does it again.
    /// Returns the response bytes.
    pub fn propagate(&mut self, raw: &[u8], fleet: bool) -> Result<Vec<u8>, String> {
        let (root, req) = self.begin();
        let mut pending = None;
        let out = if fleet {
            self.fleet_path(root, req, raw, &mut pending)
        } else {
            self.serve_path(root, req, raw, &mut pending)
        };
        self.tracer.close(root, 1);
        if let Some(pending) = pending {
            self.whole(req, pending)?;
        }
        out
    }

    fn fleet_path(
        &mut self,
        root: usize,
        req: u64,
        raw: &[u8],
        pending: &mut Option<Pending>,
    ) -> Result<Vec<u8>, String> {
        let request = self.read(root, req, raw)?;
        let wire = self.decode(root, req, &request.body)?;
        let canonical = self.canonical(root, req, &wire)?;
        // `place` is a few ns: time a run of calls so the clock reads
        // do not dominate the span.
        let (table, hash) = (&self.table, canonical.content_hash());
        self.tracer
            .time("fleet.shard.place", Some(root), req, PLACE_REPEAT, || {
                for _ in 0..PLACE_REPEAT {
                    std::hint::black_box(table.place(std::hint::black_box(hash)));
                }
            });
        let bytes = self.serve_path(root, req, raw, pending)?;
        // The front relays the shard's answer with its own write.
        let mut conn = HttpConn::new(Cursor::new(bytes));
        let response = conn
            .read_response(&Limits::default(), &mut || false)
            .map_err(|e| format!("shard response: {e}"))?;
        self.write(root, req, &response)
    }

    fn read(&mut self, root: usize, req: u64, raw: &[u8]) -> Result<sysunc_serve::Request, String> {
        self.tracer
            .time("serve.http.read", Some(root), req, raw.len() as u64, || {
                HttpConn::new(Cursor::new(raw)).read_request(&Limits::default(), &mut || false)
            })
            .map_err(|e| format!("read_request: {e}"))?
            .ok_or_else(|| "read_request: empty".to_string())
    }

    fn decode(&mut self, root: usize, req: u64, body: &[u8]) -> Result<WireRequest, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        self.tracer
            .time(
                "prob.json.decode",
                Some(root),
                req,
                body.len() as u64,
                || json::from_str::<WireRequest>(text),
            )
            .map_err(|e| format!("decode: {e}"))
    }

    fn canonical(
        &mut self,
        root: usize,
        req: u64,
        wire: &WireRequest,
    ) -> Result<CanonicalRequest, String> {
        self.tracer
            .time("core.wire.canonical", Some(root), req, 1, || {
                CanonicalRequest::from_wire(wire)
            })
            .map_err(|e| format!("canonicalize: {e}"))
    }

    fn write(&mut self, root: usize, req: u64, response: &Response) -> Result<Vec<u8>, String> {
        let mut out = Vec::with_capacity(response.body.len() + 256);
        self.tracer
            .time(
                "serve.http.write",
                Some(root),
                req,
                response.body.len() as u64,
                || response.write_to(&mut out, true),
            )
            .map_err(|e| format!("write_to: {e}"))?;
        Ok(out)
    }

    fn serve_path(
        &mut self,
        root: usize,
        req: u64,
        raw: &[u8],
        pending: &mut Option<Pending>,
    ) -> Result<Vec<u8>, String> {
        let request = self.read(root, req, raw)?;
        let wire = self.decode(root, req, &request.body)?;
        let canonical = self.canonical(root, req, &wire)?;
        let cache = &self.cache;
        let hit = self.tracer.time("serve.cache.get", Some(root), req, 1, || {
            cache.get(canonical.content_hash(), canonical.bytes())
        });
        let (body, verdict) = match hit {
            Some(body) => (body, "hit"),
            None => {
                let registry = self.registry;
                let model = registry
                    .get(&wire.model)
                    .ok_or_else(|| format!("model {}", wire.model))?;
                let (engine, request) = self
                    .tracer
                    .time("core.wire.to_request", Some(root), req, 1, || {
                        Ok::<_, sysunc::Error>((wire.resolve_engine()?, wire.to_request(model)?))
                    })
                    .map_err(|e| e.to_string())?;
                let (report, stage_ns) =
                    self.staged(root, req, &wire, engine.as_ref(), &request)?;
                let body = self
                    .tracer
                    .time("prob.json.encode", Some(root), req, 1, || {
                        json::to_string(&report)
                    });
                let body = Arc::new(body);
                let cache = &self.cache;
                self.tracer
                    .time("serve.cache.insert", Some(root), req, 1, || {
                        cache.insert(
                            canonical.content_hash(),
                            canonical.bytes().to_string(),
                            Arc::clone(&body),
                        )
                    });
                *pending = Some(Pending {
                    wire,
                    staged: report,
                    stage_ns,
                });
                (body, "miss")
            }
        };
        let response = Response::new(200)
            .with_json(body.as_str().to_string())
            .with_header("X-Sysunc-Cache", verdict);
        self.write(root, req, &response)
    }

    /// One `POST /v1/propagate/batch` through the serve path, then each
    /// distinct job replayed stage by stage and whole.
    pub fn batch(&mut self, raw: &[u8]) -> Result<Vec<u8>, String> {
        let (root, req) = self.begin();
        let request = self.read(root, req, raw)?;
        let registry = self.registry;
        let jobs = self
            .tracer
            .time("serve.router.decode_batch", Some(root), req, 1, || {
                decode_batch_body(registry, &request.body)
            })
            .map_err(|r| format!("decode_batch_body: {}", r.body_text()))?;
        let keys: Vec<&str> = jobs.iter().map(|(_, c)| c.bytes()).collect();
        let (uniques, assignment) = self.tracer.time(
            "core.propagator.dedup",
            Some(root),
            req,
            keys.len() as u64,
            || dedup_by_key(&keys),
        );
        self.batch_jobs.0 += jobs.len() as u64;
        self.batch_jobs.1 += uniques.len() as u64;
        for &u in &uniques {
            let (_, c) = &jobs[u];
            let cache = &self.cache;
            let hit = self.tracer.time("serve.cache.get", Some(root), req, 1, || {
                cache.get(c.content_hash(), c.bytes())
            });
            if hit.is_some() {
                return Err("a fresh batch job hit the replay cache".into());
            }
        }
        let threads = ServerConfig::default().workers;
        let spent = AtomicU64::new(0);
        let mut engines = Vec::new();
        let mut requests = Vec::new();
        for &u in &uniques {
            let (wire, _) = &jobs[u];
            let model = registry.get(&wire.model).ok_or("model")?;
            engines.push(Timed {
                inner: wire.resolve_engine().map_err(|e| e.to_string())?,
                spent_ns: &spent,
            });
            requests.push(wire.to_request(model).map_err(|e| e.to_string())?);
        }
        let batch: Vec<(&dyn Propagator, &PropagationRequest<'_>)> = engines
            .iter()
            .map(|e| e as &dyn Propagator)
            .zip(requests.iter())
            .collect();
        let started = Instant::now();
        let results = self.tracer.time(
            "core.propagator.run_batch",
            Some(root),
            req,
            batch.len() as u64,
            || run_batch(&batch, threads),
        );
        let wall = started.elapsed().as_nanos() as u64;
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.batch_job_ns += spent.load(Ordering::Relaxed);
        self.batch_capacity_ns += wall * threads.min(cores).min(batch.len()).max(1) as u64;
        let mut bodies = Vec::with_capacity(results.len());
        let mut reports = Vec::with_capacity(results.len());
        for (&u, result) in uniques.iter().zip(results) {
            let report = result.map_err(|e| format!("batch job: {e}"))?;
            let body = self
                .tracer
                .time("prob.json.encode", Some(root), req, 1, || {
                    json::to_string(&report)
                });
            let body = Arc::new(body);
            let (_, c) = &jobs[u];
            let cache = &self.cache;
            self.tracer
                .time("serve.cache.insert", Some(root), req, 1, || {
                    cache.insert(c.content_hash(), c.bytes().to_string(), Arc::clone(&body))
                });
            bodies.push(body);
            reports.push(report);
        }
        let mut out = String::from("[");
        for (i, &slot) in assignment.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&bodies[slot]);
        }
        out.push(']');
        let response = Response::new(200).with_json(out);
        let written = self.write(root, req, &response);
        self.tracer.close(root, jobs.len() as u64);
        for (&u, served) in uniques.iter().zip(&reports) {
            let (wire, _) = &jobs[u];
            let model = registry.get(&wire.model).ok_or("model")?;
            let engine = wire.resolve_engine().map_err(|e| e.to_string())?;
            let request = wire.to_request(model).map_err(|e| e.to_string())?;
            let job_root = self.tracer.open("replay.job", None, req);
            let (staged, stage_ns) = self.staged(job_root, req, wire, engine.as_ref(), &request)?;
            self.tracer.close(job_root, 1);
            if &staged != served {
                self.mismatches += 1;
            }
            self.whole(
                req,
                Pending {
                    wire: wire.clone(),
                    staged,
                    stage_ns,
                },
            )?;
        }
        written
    }

    /// Runs one engine request stage by stage, each stage a child span
    /// of `parent`. Returns the report and the summed stage time in ns.
    fn staged(
        &mut self,
        parent: usize,
        req: u64,
        wire: &WireRequest,
        engine: &dyn Propagator,
        request: &PropagationRequest<'_>,
    ) -> Result<(PropagationReport, u64), String> {
        let first = self.tracer.spans().len();
        let report = match (design_for(&wire.engine), engine.name()) {
            (Some((design, name)), _) => {
                self.staged_sampling(parent, req, wire, engine, request, design.as_ref(), name)?
            }
            (None, "pce-spectral") => self.staged_pce(parent, req, engine, request)?,
            (None, _) => self.staged_evidential(parent, req, engine, request)?,
        };
        let stage_ns = self.tracer.spans()[first..]
            .iter()
            .filter(|s| STAGES.contains(&s.name))
            .map(|s| s.end - s.start)
            .sum();
        Ok((report, stage_ns))
    }

    #[allow(clippy::too_many_arguments)]
    fn staged_sampling(
        &mut self,
        parent: usize,
        req: u64,
        wire: &WireRequest,
        engine: &dyn Propagator,
        request: &PropagationRequest<'_>,
        design: &dyn Design,
        design_name: &'static str,
    ) -> Result<PropagationReport, String> {
        let p = Some(parent);
        let dists: Vec<Box<dyn Continuous>> = request
            .inputs
            .iter()
            .map(continuous)
            .collect::<Result<_, _>>()?;
        let (n, dim) = (request.budget, dists.len());
        let mut rng = StdRng::seed_from_u64(request.seed);
        let mut u = SoaMatrix::zeroed(dim, n);
        self.tracer
            .time(design_name, p, req, (n * dim) as u64, || {
                design.generate_into(n, dim, &mut rng, &mut u)
            })
            .map_err(|e| e.to_string())?;
        let mut x = SoaMatrix::zeroed(dim, n);
        for (j, (d, input)) in dists.iter().zip(&request.inputs).enumerate() {
            let uc = u.col_mut(j);
            for v in uc.iter_mut() {
                *v = v.clamp(1e-15, 1.0 - 1e-15);
            }
            let xc = x.col_mut(j);
            self.tracer.time(dist_span(input), p, req, n as u64, || {
                d.quantile_fill(uc, xc)
            });
        }
        drop(u);
        let model: &dyn Model = request.model;
        let mut out = vec![0.0; n];
        self.tracer
            .time(model_span(&wire.model), p, req, n as u64, || {
                for (c, chunk) in out.chunks_mut(CHUNK_WIDTH).enumerate() {
                    let lo = c * CHUNK_WIDTH;
                    model.eval_batch(&x.chunk(lo, lo + chunk.len()), chunk);
                }
            });
        let stats = self
            .tracer
            .time("core.propagator.reduce", p, req, n as u64, || {
                let mut total = RunningStats::new();
                for chunk in out.chunks(CHUNK_WIDTH) {
                    let mut s = RunningStats::new();
                    for &y in chunk {
                        s.push(y);
                    }
                    total.merge(&s);
                }
                total
            });
        let quantiles = self.quantiles(p, req, &out, &request.quantile_levels)?;
        let exceedance = request.threshold.map(|t| {
            Interval::degenerate(out.iter().filter(|&&y| y > t).count() as f64 / n.max(1) as f64)
        });
        Ok(PropagationReport {
            engine: engine.name(),
            means: engine.means(),
            kind: request.dominant_kind(),
            mean: Interval::degenerate(stats.mean()),
            variance: Interval::degenerate(stats.variance()),
            quantiles,
            exceedance,
            evaluations: n,
        })
    }

    fn quantiles(
        &mut self,
        p: Option<usize>,
        req: u64,
        out: &[f64],
        levels: &[f64],
    ) -> Result<Vec<(f64, Interval)>, String> {
        if levels.is_empty() {
            return Ok(Vec::new());
        }
        self.tracer
            .time("prob.stats.sort", p, req, out.len() as u64, || {
                SortedSample::from_slice(out).map(|sorted| {
                    levels
                        .iter()
                        .map(|&l| (l, Interval::degenerate(sorted.interpolated(l))))
                        .collect()
                })
            })
            .map_err(|e| e.to_string())
    }

    fn staged_pce(
        &mut self,
        parent: usize,
        req: u64,
        engine: &dyn Propagator,
        request: &PropagationRequest<'_>,
    ) -> Result<PropagationReport, String> {
        let p = Some(parent);
        let inputs: Vec<PceInput> = request
            .inputs
            .iter()
            .map(pce_input)
            .collect::<Result<_, _>>()?;
        let model = request.model;
        let fit = self.tracer.open("pce.fit", p, req);
        let pce = ChaosExpansion::fit_projection(&inputs, SpectralEngine::default().degree, |x| {
            model.eval(x)
        })
        .map_err(|e| e.to_string())?;
        self.tracer.close(fit, pce.evaluations() as u64);
        let n = request.budget.max(1024);
        let mut rng = StdRng::seed_from_u64(request.seed);
        let points = self
            .tracer
            .time("pce.design", p, req, n as u64, || {
                LatinHypercubeDesign.generate(n, inputs.len(), &mut rng)
            })
            .map_err(|e| e.to_string())?;
        let outputs: Vec<f64> = self.tracer.time("pce.eval", p, req, n as u64, || {
            points.iter().map(|u| pce.eval_u(u)).collect()
        });
        let quantiles = self.quantiles(p, req, &outputs, &request.quantile_levels)?;
        let exceedance = request.threshold.map(|t| {
            Interval::degenerate(outputs.iter().filter(|&&y| y > t).count() as f64 / n as f64)
        });
        Ok(PropagationReport {
            engine: engine.name(),
            means: engine.means(),
            kind: request.dominant_kind(),
            mean: Interval::degenerate(pce.mean()),
            variance: Interval::degenerate(pce.variance()),
            quantiles,
            exceedance,
            evaluations: pce.evaluations(),
        })
    }

    fn staged_evidential(
        &mut self,
        parent: usize,
        req: u64,
        engine: &dyn Propagator,
        request: &PropagationRequest<'_>,
    ) -> Result<PropagationReport, String> {
        let cells = EvidentialEngine::default().cells;
        let ds: Vec<DsStructure> = request
            .inputs
            .iter()
            .map(|i| match *i {
                UncertainInput::Interval { lo, hi } => Interval::new(lo, hi)
                    .map(DsStructure::from_interval)
                    .map_err(|e| e.to_string()),
                other => DsStructure::from_distribution(continuous(&other)?.as_ref(), cells)
                    .map_err(|e| e.to_string()),
            })
            .collect::<Result<_, _>>()?;
        let model = request.model;
        let id = self.tracer.open("evidence.propagate", Some(parent), req);
        let (out, evaluations) =
            propagate_model(&ds, |x| model.eval(x), request.budget).map_err(|e| e.to_string())?;
        self.tracer.close(id, evaluations as u64);
        self.evidence_budget += request.budget as u64;
        let quantiles = request
            .quantile_levels
            .iter()
            .map(|&p| out.quantile_bounds(p).map(|b| (p, b)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok(PropagationReport {
            engine: engine.name(),
            means: engine.means(),
            kind: request.dominant_kind(),
            mean: out.mean_bounds(),
            variance: Interval::degenerate(out.variance_pignistic()),
            quantiles,
            exceedance: request.threshold.map(|t| out.exceedance_bounds(t)),
            evaluations,
        })
    }

    /// Times the whole engine call (and, for sampling engines, the
    /// chunked driver) as roots of their own; counts a mismatch when the
    /// engine's report differs from the staged one.
    fn whole(&mut self, req: u64, pending: Pending) -> Result<(), String> {
        let Pending {
            wire,
            staged,
            stage_ns,
        } = pending;
        let wire = &wire;
        let registry = self.registry;
        let model = registry.get(&wire.model).ok_or("model")?;
        let engine = wire.resolve_engine().map_err(|e| e.to_string())?;
        let request = wire.to_request(model).map_err(|e| e.to_string())?;
        let id = self.tracer.open(engine_span(&wire.engine), None, req);
        let report = engine.propagate(&request).map_err(|e| e.to_string())?;
        self.tracer.close(id, report.evaluations as u64);
        let whole_ns = self.tracer.spans()[id].end - self.tracer.spans()[id].start;
        if report != staged {
            self.mismatches += 1;
        }
        if let Some((design, _)) = design_for(&wire.engine) {
            let dists: Vec<Box<dyn Continuous>> = request
                .inputs
                .iter()
                .map(continuous)
                .collect::<Result<_, _>>()?;
            let refs: Vec<&dyn Continuous> = dists.iter().map(Box::as_ref).collect();
            let options = ChunkOptions::auto(request.budget);
            let name = if options.threads > 1 {
                "core.propagator.chunked.threaded"
            } else {
                self.unaccounted_ns.push(whole_ns.saturating_sub(stage_ns));
                "core.propagator.chunked.serial"
            };
            let mut rng = StdRng::seed_from_u64(request.seed);
            let run = self
                .tracer
                .time(name, None, req, request.budget as u64, || {
                    propagate_chunked(
                        &refs,
                        design.as_ref(),
                        request.model,
                        request.budget,
                        options,
                        &mut rng,
                    )
                })
                .map_err(|e| e.to_string())?;
            std::hint::black_box(run);
        }
        Ok(())
    }
}
