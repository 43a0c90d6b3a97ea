//! The unified propagation engine layer.
//!
//! The paper's central claim is that aleatory, epistemic and ontological
//! uncertainty are facets of *one* modeling relation — yet a toolkit
//! reproducing it naturally grows one propagation code path per
//! mathematical machinery: Monte Carlo in `sampling`, spectral expansion
//! in `pce`, belief/plausibility envelopes in `evidence`. This module
//! puts the single abstraction back: every engine is a [`Propagator`]
//! that consumes the same [`PropagationRequest`] (shared
//! [`UncertainInput`] declarations plus a deterministic [`Model`]) and
//! produces the same [`PropagationReport`] (mean/variance/quantile
//! *intervals*, tagged with the taxonomy kind it propagated and the
//! coping [`Means`] the engine realizes).
//!
//! Precise engines return degenerate intervals; the evidential engine
//! returns genuinely wide ones — the report type makes the epistemic
//! width a first-class output instead of an incompatible type.
//!
//! The hot path of the sampling engines is [`propagate_chunked`]: design
//! generation, inverse-CDF transform and model evaluation all run over
//! cache-aligned struct-of-arrays chunks ([`sysunc_sampling::SoaMatrix`])
//! with one virtual dispatch per chunk instead of per sample, tiled
//! across scoped OS threads. Outputs are bit-identical to the scalar
//! reference path (`sysunc_sampling::propagate`) for any chunk width and
//! thread count; only the fused mean/variance reduction is
//! chunk-width-sensitive at the ulp level (see DESIGN.md).
//!
//! [`run_batch`] fans a batch of (engine, request) jobs across OS threads
//! with `std::thread::scope`; because every engine derives all randomness
//! from the request seed, the parallel driver is bit-identical to
//! [`run_batch_serial`].

use crate::error::{Error, Result};
use crate::taxonomy::{Means, UncertaintyKind};
use std::fmt;
use sysunc_evidence::{DsStructure, Interval};
use sysunc_pce::{ChaosExpansion, PceInput};
use sysunc_prob::dist::{Beta, Continuous, Exponential, Normal, Uniform};
use sysunc_prob::rng::{RngCore, SeedableRng, StdRng};
use sysunc_prob::stats::{select_quantiles, RunningStats};
use sysunc_sampling::{
    AlignedBuf, Design, LatinHypercubeDesign, RandomDesign, SoaMatrix, SobolDesign,
};

pub use sysunc_sampling::Model;

/// One uncertain input of a propagation problem, in engine-neutral form.
///
/// Every engine translates the declaration into its native
/// representation: a [`Continuous`] distribution for sampling engines, a
/// Wiener–Askey germ for the spectral engine, a Dempster–Shafer structure
/// for the evidential engine. The [`UncertainInput::Interval`] variant is
/// *purely epistemic* (known bounds, no distribution) and is only
/// representable by the evidential engine; sampling and spectral engines
/// reject it with [`Error::Unsupported`] rather than silently assuming a
/// uniform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UncertainInput {
    /// `X ~ N(mu, sigma²)` — aleatory.
    Normal {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// `X ~ U(a, b)` — aleatory.
    Uniform {
        /// Lower bound.
        a: f64,
        /// Upper bound.
        b: f64,
    },
    /// `X ~ Exp(rate)` — aleatory.
    Exponential {
        /// Rate parameter.
        rate: f64,
    },
    /// `X ~ Beta(alpha, beta)` on `[0, 1]` — aleatory.
    Beta {
        /// First shape parameter.
        alpha: f64,
        /// Second shape parameter.
        beta: f64,
    },
    /// `X ∈ [lo, hi]` with no distributional claim — epistemic.
    Interval {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl UncertainInput {
    /// The taxonomy kind this input declares.
    pub fn kind(&self) -> UncertaintyKind {
        match self {
            UncertainInput::Interval { .. } => UncertaintyKind::Epistemic,
            _ => UncertaintyKind::Aleatory,
        }
    }

    /// Native form for sampling engines.
    fn to_continuous(self) -> Result<Box<dyn Continuous>> {
        match self {
            UncertainInput::Normal { mu, sigma } => Ok(Box::new(Normal::new(mu, sigma)?)),
            UncertainInput::Uniform { a, b } => Ok(Box::new(Uniform::new(a, b)?)),
            UncertainInput::Exponential { rate } => Ok(Box::new(Exponential::new(rate)?)),
            UncertainInput::Beta { alpha, beta } => Ok(Box::new(Beta::new(alpha, beta)?)),
            UncertainInput::Interval { lo, hi } => Err(Error::Unsupported(format!(
                "interval input [{lo}, {hi}] has no sampling distribution; \
                 use the evidential engine"
            ))),
        }
    }

    /// Native form for the spectral (polynomial chaos) engine.
    fn to_pce(self) -> Result<PceInput> {
        match self {
            UncertainInput::Normal { mu, sigma } => Ok(PceInput::Normal { mu, sigma }),
            UncertainInput::Uniform { a, b } => Ok(PceInput::Uniform { a, b }),
            UncertainInput::Exponential { rate } => Ok(PceInput::Exponential { rate }),
            UncertainInput::Beta { alpha, beta } => Ok(PceInput::Beta { alpha, beta }),
            UncertainInput::Interval { lo, hi } => Err(Error::Unsupported(format!(
                "interval input [{lo}, {hi}] has no polynomial-chaos germ; \
                 use the evidential engine"
            ))),
        }
    }

    /// Native form for the evidential engine: distributions are outer-
    /// discretized into `cells` equal-mass focal intervals, intervals are
    /// taken as-is (a single focal element of mass 1).
    fn to_ds(self, cells: usize) -> Result<DsStructure> {
        match self {
            UncertainInput::Interval { lo, hi } => {
                Ok(DsStructure::from_interval(sysunc_evidence::Interval::new(lo, hi)?))
            }
            other => {
                let dist = other.to_continuous()?;
                Ok(DsStructure::from_distribution(dist.as_ref(), cells)?)
            }
        }
    }
}

/// A complete propagation problem: what to push through which model, at
/// what cost, reproducibly.
#[derive(Clone)]
pub struct PropagationRequest<'m> {
    /// Input declarations, one per model dimension.
    pub inputs: Vec<UncertainInput>,
    /// The deterministic model `y = f(x)` (paper Fig. 2, model A).
    pub model: &'m dyn Model,
    /// Evaluation budget for budget-driven engines (sample count for
    /// sampling engines, focal-product cap for the evidential engine).
    /// Grid-driven engines may spend less and report what they used.
    pub budget: usize,
    /// Seed from which every engine derives all of its randomness — the
    /// reproducibility contract that makes parallel batch execution
    /// bit-identical to serial.
    pub seed: u64,
    /// Quantile levels to report, each in `(0, 1)`.
    pub quantile_levels: Vec<f64>,
    /// Optional exceedance query: report bounds on `P(Y > threshold)`.
    pub threshold: Option<f64>,
}

impl<'m> PropagationRequest<'m> {
    /// Builds a request with defaults: budget 4096, seed 2020 (the
    /// paper's year), quantiles 5% / 50% / 95%, no threshold.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for empty inputs.
    pub fn new(inputs: Vec<UncertainInput>, model: &'m dyn Model) -> Result<Self> {
        if inputs.is_empty() {
            return Err(Error::InvalidInput("propagation needs at least one input".into()));
        }
        Ok(Self {
            inputs,
            model,
            budget: 4096,
            seed: 2020,
            quantile_levels: vec![0.05, 0.5, 0.95],
            threshold: None,
        })
    }

    /// Sets the evaluation budget.
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the reported quantile levels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for levels outside `(0, 1)`.
    pub fn with_quantile_levels(mut self, levels: Vec<f64>) -> Result<Self> {
        if levels.iter().any(|p| !(*p > 0.0 && *p < 1.0)) {
            return Err(Error::InvalidInput(format!(
                "quantile levels must lie in (0, 1), got {levels:?}"
            )));
        }
        self.quantile_levels = levels;
        Ok(self)
    }

    /// Adds an exceedance query `P(Y > threshold)`.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// The dominant taxonomy kind of the declared inputs: epistemic as
    /// soon as one input is a pure interval, aleatory otherwise.
    pub fn dominant_kind(&self) -> UncertaintyKind {
        if self.inputs.iter().any(|i| i.kind() == UncertaintyKind::Epistemic) {
            UncertaintyKind::Epistemic
        } else {
            UncertaintyKind::Aleatory
        }
    }
}

impl fmt::Debug for PropagationRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PropagationRequest")
            .field("inputs", &self.inputs)
            .field("budget", &self.budget)
            .field("seed", &self.seed)
            .field("quantile_levels", &self.quantile_levels)
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

/// The unified result of one engine run.
///
/// All statistics are [`Interval`]s: precise engines return degenerate
/// (zero-width) intervals, the evidential engine returns the true
/// belief/plausibility envelope. Downstream code that only wants a number
/// calls the `*_estimate` midpoint accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationReport {
    /// Name of the engine that produced the report.
    pub engine: &'static str,
    /// The coping means (paper Sec. IV) the engine realizes.
    pub means: Means,
    /// Dominant taxonomy kind of the propagated inputs.
    pub kind: UncertaintyKind,
    /// Bounds on the output mean.
    pub mean: Interval,
    /// Bounds on the output variance (pignistic point value for the
    /// evidential engine, see [`DsStructure::variance_pignistic`]).
    pub variance: Interval,
    /// `(level, bounds)` per requested quantile level.
    pub quantiles: Vec<(f64, Interval)>,
    /// Bounds on `P(Y > threshold)` when the request asked for it.
    /// Range: both endpoints in `[0, 1]`.
    pub exceedance: Option<Interval>,
    /// Model evaluations actually spent.
    pub evaluations: usize,
}

impl PropagationReport {
    /// Point estimate of the mean (interval midpoint).
    pub fn mean_estimate(&self) -> f64 {
        self.mean.midpoint()
    }

    /// Point estimate of the variance (interval midpoint).
    pub fn variance_estimate(&self) -> f64 {
        self.variance.midpoint()
    }

    /// Point estimate of the standard deviation.
    pub fn std_dev_estimate(&self) -> f64 {
        self.variance_estimate().max(0.0).sqrt()
    }

    /// Width of the epistemic envelope on the mean — zero for precise
    /// engines, positive for interval-valued ones.
    pub fn epistemic_width(&self) -> f64 {
        self.mean.width()
    }
}

impl fmt::Display for PropagationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let iv = |i: &Interval| {
            if i.width() < 1e-12 {
                format!("{:.5}", i.midpoint())
            } else {
                format!("[{:.5}, {:.5}]", i.lo(), i.hi())
            }
        };
        write!(
            f,
            "{:<16} kind={:<10} means={:<11} mean={} var={} evals={}",
            self.engine,
            self.kind.to_string(),
            self.means.to_string(),
            iv(&self.mean),
            iv(&self.variance),
            self.evaluations
        )?;
        if let Some(e) = &self.exceedance {
            write!(f, " p_exceed={}", iv(e))?;
        }
        Ok(())
    }
}

/// A propagation engine: one uniform interface over Monte Carlo, Latin
/// hypercube, quasi-Monte Carlo, spectral and evidential propagation.
///
/// Implementations must be deterministic given `request.seed` — that is
/// what makes [`run_batch`] bit-identical to [`run_batch_serial`].
pub trait Propagator: Sync {
    /// Stable engine identifier (used in reports and tables).
    fn name(&self) -> &'static str;

    /// The coping means (paper Sec. IV) this engine realizes.
    fn means(&self) -> Means;

    /// Runs the engine on one request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] when the engine cannot represent an
    /// input declaration, and propagates substrate failures.
    fn propagate(&self, request: &PropagationRequest<'_>) -> Result<PropagationReport>;
}

/// Default number of samples per chunk of the chunked driver: large
/// enough to amortize the per-chunk virtual dispatch, small enough that a
/// chunk's working set (inputs + outputs) stays cache-resident.
pub const CHUNK_WIDTH: usize = 1024;

/// Tuning knobs of [`propagate_chunked`]. Neither knob affects the
/// outputs: chunk width and thread count only change *how* the same
/// sample values are computed and reduced (see DESIGN.md, "Chunked
/// struct-of-arrays kernels", for the exact determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkOptions {
    /// Samples per chunk (clamped to at least 1).
    pub width: usize,
    /// Worker threads tiling the chunks (clamped to at least 1).
    pub threads: usize,
}

impl Default for ChunkOptions {
    fn default() -> Self {
        Self { width: CHUNK_WIDTH, threads: 1 }
    }
}

impl ChunkOptions {
    /// Serial execution with the default chunk width.
    pub fn serial() -> Self {
        Self::default()
    }

    /// Sizes the thread pool for a budget: available parallelism (capped
    /// at 8) when the run spans at least four chunks, serial otherwise —
    /// tiny runs are dominated by thread startup.
    pub fn auto(budget: usize) -> Self {
        let threads = if budget >= 4 * CHUNK_WIDTH {
            std::thread::available_parallelism().map_or(1, |p| p.get().min(8))
        } else {
            1
        };
        Self { width: CHUNK_WIDTH, threads }
    }
}

/// Result of a chunked propagation run: the output sample in a
/// cache-aligned buffer plus the fused per-chunk moments.
#[derive(Debug)]
pub struct ChunkedRun {
    outputs: AlignedBuf,
    stats: RunningStats,
}

impl ChunkedRun {
    /// Model outputs, one per design point, in design order.
    pub fn outputs(&self) -> &[f64] {
        self.outputs.as_slice()
    }

    /// The fused output moments (per-chunk accumulators merged in chunk
    /// index order).
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    /// Estimated mean of the model output.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Estimated variance of the model output.
    pub fn variance(&self) -> f64 {
        self.stats.variance()
    }

    /// Estimated `P(Y > threshold)` — an exact count, bit-identical to
    /// the scalar path. Range: `[0, 1]`.
    pub fn exceedance_probability(&self, threshold: f64) -> f64 {
        let outputs = self.outputs();
        outputs.iter().filter(|&&y| y > threshold).count() as f64
            / outputs.len().max(1) as f64
    }
}

/// Evaluates rows `lo..lo + out.len()` of the input matrix into `out`,
/// accumulating the chunk's moments into `stats`.
fn run_chunk(
    x: &SoaMatrix,
    model: &dyn Model,
    lo: usize,
    out: &mut [f64],
    stats: &mut RunningStats,
) {
    let cols = x.chunk(lo, lo + out.len());
    model.eval_batch(&cols, out);
    for &y in out.iter() {
        stats.push(y);
    }
}

/// The unified chunked propagation driver: generates the design straight
/// into a struct-of-arrays matrix, applies the inverse-CDF transform one
/// *dimension* at a time ([`Continuous::quantile_fill`]), and evaluates
/// the model one *chunk* at a time ([`Model::eval_batch`]), tiling chunks
/// across scoped OS threads.
///
/// Every engine and the serving layer funnel through this function; the
/// scalar `sysunc_sampling::propagate` remains as the reference
/// implementation it is tested against.
///
/// Determinism: outputs, exceedance counts, min/max and type-7
/// quantiles are **bit-identical** to the scalar path for any chunk
/// width and thread count (same design values, same RNG consumption
/// order, same elementwise transforms). The fused mean/variance merge
/// per-chunk accumulators in chunk index order, so they are independent
/// of the thread count but may differ from the sequential push by a few
/// ulps — the one documented tolerance-equivalence case.
///
/// # Errors
///
/// Propagates design-generation and dimension errors.
pub fn propagate_chunked(
    inputs: &[&dyn Continuous],
    design: &dyn Design,
    model: &dyn Model,
    n: usize,
    options: ChunkOptions,
    rng: &mut dyn RngCore,
) -> Result<ChunkedRun> {
    let dim = inputs.len();
    let mut u = SoaMatrix::zeroed(dim, n);
    design.generate_into(n, dim, rng, &mut u)?;
    // Inverse-CDF transform, one full column per input dimension: one
    // virtual call per (dimension, run) instead of per (dimension,
    // sample). The clamp matches `sysunc_sampling::to_input_space`.
    let mut x = SoaMatrix::zeroed(dim, n);
    for (j, d) in inputs.iter().enumerate() {
        let uc = u.col_mut(j);
        for v in uc.iter_mut() {
            *v = v.clamp(1e-15, 1.0 - 1e-15);
        }
        d.quantile_fill(uc, x.col_mut(j));
    }
    drop(u);

    let width = options.width.max(1);
    let threads = options.threads.max(1);
    let mut outputs = AlignedBuf::zeroed(n);
    let n_chunks = n.div_ceil(width);
    let mut chunk_stats: Vec<RunningStats> = (0..n_chunks).map(|_| RunningStats::new()).collect();
    // One job per chunk: disjoint output slice + dedicated stats slot,
    // so any tiling over threads reduces to the same merged result.
    let mut jobs: Vec<(usize, &mut [f64], &mut RunningStats)> = outputs
        .as_mut_slice()
        .chunks_mut(width)
        .zip(chunk_stats.iter_mut())
        .enumerate()
        .map(|(c, (out, stats))| (c * width, out, stats))
        .collect();
    let x_ref = &x;
    if threads <= 1 || jobs.len() <= 1 {
        for (lo, out, stats) in &mut jobs {
            run_chunk(x_ref, model, *lo, out, stats);
        }
    } else {
        let per = jobs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for group in jobs.chunks_mut(per) {
                scope.spawn(move || {
                    for (lo, out, stats) in group.iter_mut() {
                        run_chunk(x_ref, model, *lo, out, stats);
                    }
                });
            }
        });
    }
    drop(jobs);

    // Merge in chunk index order — independent of thread scheduling.
    let mut stats = RunningStats::new();
    for s in &chunk_stats {
        stats.merge(s);
    }
    Ok(ChunkedRun { outputs, stats })
}

/// `(level, point)` for every requested level, selected in place from
/// `outputs` ([`select_quantiles`]: no sort, no copy). With no levels
/// the outputs are not read, so NaN outputs still yield a
/// (quantile-free) report.
fn point_quantiles(outputs: &mut [f64], levels: &[f64]) -> Result<Vec<(f64, Interval)>> {
    if levels.is_empty() {
        return Ok(Vec::new());
    }
    let values = select_quantiles(outputs, levels)?;
    Ok(levels.iter().zip(values).map(|(&p, q)| (p, Interval::degenerate(q))).collect())
}

/// Shared implementation for the three design-of-experiment engines, on
/// top of the chunked driver.
fn sampling_report(
    engine: &'static str,
    means: Means,
    design: &dyn Design,
    request: &PropagationRequest<'_>,
) -> Result<PropagationReport> {
    let dists: Vec<Box<dyn Continuous>> = request
        .inputs
        .iter()
        .map(|i| i.to_continuous())
        .collect::<Result<_>>()?;
    let refs: Vec<&dyn Continuous> = dists.iter().map(Box::as_ref).collect();
    let mut rng = StdRng::seed_from_u64(request.seed);
    let mut run = propagate_chunked(
        &refs,
        design,
        request.model,
        request.budget,
        ChunkOptions::auto(request.budget),
        &mut rng,
    )?;
    let exceedance = request
        .threshold
        .map(|t| Interval::degenerate(run.exceedance_probability(t)));
    // The run is not read in design order after this: selection
    // permutes its outputs in place.
    let quantiles = point_quantiles(run.outputs.as_mut_slice(), &request.quantile_levels)?;
    Ok(PropagationReport {
        engine,
        means,
        kind: request.dominant_kind(),
        mean: Interval::degenerate(run.mean()),
        variance: Interval::degenerate(run.variance()),
        quantiles,
        exceedance,
        evaluations: run.outputs().len(),
    })
}

/// Crude Monte Carlo propagation (uncertainty removal by brute-force
/// design of experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct MonteCarloEngine;

impl Propagator for MonteCarloEngine {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    fn means(&self) -> Means {
        Means::Removal
    }

    fn propagate(&self, request: &PropagationRequest<'_>) -> Result<PropagationReport> {
        sampling_report(self.name(), self.means(), &RandomDesign, request)
    }
}

/// Latin-hypercube propagation (stratified design of experiment).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatinHypercubeEngine;

impl Propagator for LatinHypercubeEngine {
    fn name(&self) -> &'static str {
        "latin-hypercube"
    }

    fn means(&self) -> Means {
        Means::Removal
    }

    fn propagate(&self, request: &PropagationRequest<'_>) -> Result<PropagationReport> {
        sampling_report(self.name(), self.means(), &LatinHypercubeDesign, request)
    }
}

/// Sobol' quasi-Monte Carlo propagation (low-discrepancy design).
#[derive(Debug, Clone, Copy, Default)]
pub struct SobolEngine;

impl Propagator for SobolEngine {
    fn name(&self) -> &'static str {
        "sobol-qmc"
    }

    fn means(&self) -> Means {
        Means::Removal
    }

    fn propagate(&self, request: &PropagationRequest<'_>) -> Result<PropagationReport> {
        sampling_report(self.name(), self.means(), &SobolDesign::default(), request)
    }
}

/// Spectral propagation by polynomial chaos projection: fits a surrogate
/// on a tensor Gauss grid, reads mean and variance off the coefficients
/// (uncertainty *forecasting*), and samples the cheap surrogate for
/// quantiles and exceedance.
#[derive(Debug, Clone, Copy)]
pub struct SpectralEngine {
    /// Total polynomial degree of the expansion.
    pub degree: usize,
}

impl SpectralEngine {
    /// Engine with the given expansion degree (clamped to at least 1).
    pub fn new(degree: usize) -> Self {
        Self { degree: degree.max(1) }
    }
}

impl Default for SpectralEngine {
    fn default() -> Self {
        Self::new(5)
    }
}

impl Propagator for SpectralEngine {
    fn name(&self) -> &'static str {
        "pce-spectral"
    }

    fn means(&self) -> Means {
        Means::Forecasting
    }

    fn propagate(&self, request: &PropagationRequest<'_>) -> Result<PropagationReport> {
        let inputs: Vec<PceInput> =
            request.inputs.iter().map(|i| i.to_pce()).collect::<Result<_>>()?;
        let model = request.model;
        let pce = ChaosExpansion::fit_projection(&inputs, self.degree, |x| model.eval(x))?;
        // Quantiles/exceedance via LHS samples of the surrogate — cheap
        // (no model calls) and deterministic under the request seed. The
        // design goes straight into columns and the surrogate kernel
        // evaluates them, bit for bit what per-point `eval_u` returns.
        let n = request.budget.max(1024);
        let mut rng = StdRng::seed_from_u64(request.seed);
        let mut points = SoaMatrix::zeroed(inputs.len(), n);
        LatinHypercubeDesign
            .generate_into(n, inputs.len(), &mut rng, &mut points)
            .map_err(Error::Sampling)?;
        let mut outputs = AlignedBuf::zeroed(n);
        pce.eval_u_batch(&points.chunk(0, n), outputs.as_mut_slice());
        drop(points);
        let outputs = outputs.as_mut_slice();
        let exceedance = request.threshold.map(|t| {
            let freq = outputs.iter().filter(|&&y| y > t).count() as f64
                / outputs.len().max(1) as f64;
            Interval::degenerate(freq)
        });
        let quantiles = point_quantiles(outputs, &request.quantile_levels)?;
        Ok(PropagationReport {
            engine: self.name(),
            means: self.means(),
            kind: request.dominant_kind(),
            mean: Interval::degenerate(pce.mean()),
            variance: Interval::degenerate(pce.variance()),
            quantiles,
            exceedance,
            evaluations: pce.evaluations(),
        })
    }
}

/// Evidential propagation through Dempster–Shafer structures: every
/// statistic comes back as a guaranteed belief/plausibility envelope —
/// the engine that *tolerates* epistemic uncertainty instead of averaging
/// it away, and the only one accepting [`UncertainInput::Interval`].
#[derive(Debug, Clone, Copy)]
pub struct EvidentialEngine {
    /// Focal cells per discretized distribution input.
    pub cells: usize,
}

impl EvidentialEngine {
    /// Engine with the given discretization resolution (at least 2).
    pub fn new(cells: usize) -> Self {
        Self { cells: cells.max(2) }
    }
}

impl Default for EvidentialEngine {
    fn default() -> Self {
        Self::new(32)
    }
}

impl Propagator for EvidentialEngine {
    fn name(&self) -> &'static str {
        "evidential"
    }

    fn means(&self) -> Means {
        Means::Tolerance
    }

    fn propagate(&self, request: &PropagationRequest<'_>) -> Result<PropagationReport> {
        let ds: Vec<DsStructure> = request
            .inputs
            .iter()
            .map(|i| i.to_ds(self.cells))
            .collect::<Result<_>>()?;
        let model = request.model;
        let (out, evaluations) =
            sysunc_evidence::propagate_model(&ds, |x| model.eval(x), request.budget)?;
        let quantiles = request
            .quantile_levels
            .iter()
            .map(|&p| Ok((p, out.quantile_bounds(p)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(PropagationReport {
            engine: self.name(),
            means: self.means(),
            kind: request.dominant_kind(),
            mean: out.try_mean_bounds()?,
            variance: Interval::degenerate(out.variance_pignistic()),
            quantiles,
            exceedance: request.threshold.map(|t| out.exceedance_bounds(t)),
            evaluations,
        })
    }
}

/// The four standard engines of the suite, boxed for batch driving: MC,
/// LHS, spectral PCE and evidential.
pub fn standard_engines() -> Vec<Box<dyn Propagator>> {
    vec![
        Box::new(MonteCarloEngine),
        Box::new(LatinHypercubeEngine),
        Box::new(SpectralEngine::default()),
        Box::new(EvidentialEngine::default()),
    ]
}

/// One unit of batch work: an engine paired with the request it runs.
pub type BatchJob<'a, 'm> = (&'a dyn Propagator, &'a PropagationRequest<'m>);

/// Runs a batch of jobs sequentially, preserving order.
pub fn run_batch_serial(jobs: &[BatchJob<'_, '_>]) -> Vec<Result<PropagationReport>> {
    jobs.iter().map(|(engine, request)| engine.propagate(request)).collect()
}

/// Runs a batch of jobs across `threads` scoped OS threads, preserving
/// order. Every engine derives its randomness from the request seed, so
/// the results are bit-identical to [`run_batch_serial`]. A batch that
/// would start one worker (one job, or `threads <= 1`) runs on the
/// calling thread: a spawn and join would only add their cost.
pub fn run_batch(jobs: &[BatchJob<'_, '_>], threads: usize) -> Vec<Result<PropagationReport>> {
    let chunk = jobs.len().div_ceil(threads.max(1)).max(1);
    if chunk >= jobs.len() {
        return run_batch_serial(jobs);
    }
    let mut results: Vec<Option<Result<PropagationReport>>> =
        jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (job_chunk, slot_chunk) in jobs.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for ((engine, request), slot) in job_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(engine.propagate(request));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| match r {
            Some(res) => res,
            None => Err(Error::InvalidInput("batch worker dropped a job".into())),
        })
        .collect()
}

/// Collapses a batch onto its distinct jobs before dispatch.
///
/// Given one key per job (for the serving layer: the canonical request
/// bytes), returns `(uniques, assignment)` where `uniques` lists the
/// index of the first occurrence of each distinct key in encounter
/// order, and `assignment[i]` is the position in `uniques` whose result
/// job `i` shares. Running only `uniques` and fanning results back out
/// through `assignment` yields exactly the reports a full run would —
/// engines are deterministic by request seed, so equal keys mean equal
/// reports.
pub fn dedup_by_key<K: Eq + std::hash::Hash>(keys: &[K]) -> (Vec<usize>, Vec<usize>) {
    let mut first_seen: std::collections::HashMap<&K, usize> =
        std::collections::HashMap::with_capacity(keys.len());
    let mut uniques = Vec::new();
    let mut assignment = Vec::with_capacity(keys.len());
    for key in keys {
        let next = uniques.len();
        let slot = *first_seen.entry(key).or_insert(next);
        if slot == next {
            uniques.push(assignment.len());
        }
        assignment.push(slot);
    }
    (uniques, assignment)
}

/// Convenience: runs one request across every given engine in parallel.
pub fn run_all(
    engines: &[Box<dyn Propagator>],
    request: &PropagationRequest<'_>,
    threads: usize,
) -> Vec<Result<PropagationReport>> {
    let jobs: Vec<BatchJob<'_, '_>> =
        engines.iter().map(|e| (e.as_ref(), request)).collect();
    run_batch(&jobs, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::stats::SortedSample;

    fn linear_request(model: &dyn Model) -> PropagationRequest<'_> {
        PropagationRequest::new(
            vec![
                UncertainInput::Normal { mu: 1.0, sigma: 2.0 },
                UncertainInput::Uniform { a: 0.0, b: 1.0 },
            ],
            model,
        )
        .unwrap()
        .with_budget(20_000)
        .with_seed(7)
    }

    #[test]
    fn engines_agree_on_linear_model() {
        // Y = 2 X1 + 3 X2: E = 3.5, Var = 16.75.
        let model = |x: &[f64]| 2.0 * x[0] + 3.0 * x[1];
        let req = linear_request(&model);
        for engine in standard_engines() {
            let rep = engine.propagate(&req).unwrap();
            assert!(
                rep.mean.contains(3.5) || (rep.mean_estimate() - 3.5).abs() < 0.06,
                "{}: mean {:?}",
                rep.engine,
                rep.mean
            );
            if rep.engine == "evidential" {
                // Outer discretization is conservative: the pignistic
                // variance adds cell-width spread on top of the true
                // variance, so it bounds truth from above.
                assert!(
                    rep.variance_estimate() >= 16.75 && rep.variance_estimate() < 40.0,
                    "{}: var {}",
                    rep.engine,
                    rep.variance_estimate()
                );
            } else {
                assert!(
                    (rep.variance_estimate() - 16.75).abs() < 0.9,
                    "{}: var {}",
                    rep.engine,
                    rep.variance_estimate()
                );
            }
            assert_eq!(rep.kind, UncertaintyKind::Aleatory);
            assert!(rep.evaluations > 0);
        }
    }

    #[test]
    fn interval_inputs_are_evidential_only() {
        let model = |x: &[f64]| x[0];
        let req = PropagationRequest::new(
            vec![UncertainInput::Interval { lo: 1.0, hi: 3.0 }],
            &model,
        )
        .unwrap();
        assert!(matches!(
            MonteCarloEngine.propagate(&req),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            SpectralEngine::default().propagate(&req),
            Err(Error::Unsupported(_))
        ));
        let rep = EvidentialEngine::default().propagate(&req).unwrap();
        assert_eq!(rep.kind, UncertaintyKind::Epistemic);
        assert!((rep.mean.lo() - 1.0).abs() < 1e-9 && (rep.mean.hi() - 3.0).abs() < 1e-9);
        assert!(rep.epistemic_width() > 1.0);
    }

    #[test]
    fn evidential_envelope_encloses_sampling_estimates() {
        let model = |x: &[f64]| x[0] + x[1];
        let req = PropagationRequest::new(
            vec![
                UncertainInput::Uniform { a: 0.0, b: 1.0 },
                UncertainInput::Interval { lo: 0.0, hi: 0.5 },
            ],
            &model,
        )
        .unwrap();
        let rep = EvidentialEngine::default().propagate(&req).unwrap();
        // True mean range: 0.5 + [0, 0.5].
        assert!(rep.mean.lo() <= 0.51 && rep.mean.hi() >= 0.99, "{:?}", rep.mean);
    }

    #[test]
    fn exceedance_and_quantiles_are_reported() {
        let model = |x: &[f64]| x[0];
        let req = PropagationRequest::new(
            vec![UncertainInput::Normal { mu: 0.0, sigma: 1.0 }],
            &model,
        )
        .unwrap()
        .with_budget(50_000)
        .with_threshold(1.645);
        for engine in standard_engines() {
            let rep = engine.propagate(&req).unwrap();
            let e = rep.exceedance.expect("threshold was requested");
            assert!(
                e.lo() <= 0.08 && e.hi() >= 0.02,
                "{}: exceedance {e:?}",
                rep.engine
            );
            let median = rep.quantiles.iter().find(|(p, _)| (*p - 0.5).abs() < 1e-12);
            let (_, m) = median.expect("median requested by default");
            assert!(m.lo() <= 0.1 && m.hi() >= -0.1, "{}: median {m:?}", rep.engine);
        }
    }

    #[test]
    fn request_validation() {
        let model = |x: &[f64]| x[0];
        assert!(matches!(
            PropagationRequest::new(vec![], &model),
            Err(Error::InvalidInput(_))
        ));
        let req =
            PropagationRequest::new(vec![UncertainInput::Normal { mu: 0.0, sigma: 1.0 }], &model)
                .unwrap();
        assert!(req.with_quantile_levels(vec![0.0]).is_err());
    }

    #[test]
    fn parallel_batch_identical_to_serial() {
        let m1 = |x: &[f64]| x[0] * x[0];
        let m2 = |x: &[f64]| (0.5 * x[0]).exp() + x[1];
        let r1 = PropagationRequest::new(
            vec![UncertainInput::Normal { mu: 0.0, sigma: 1.0 }],
            &m1,
        )
        .unwrap()
        .with_seed(11);
        let r2 = PropagationRequest::new(
            vec![
                UncertainInput::Normal { mu: 0.0, sigma: 1.0 },
                UncertainInput::Uniform { a: -1.0, b: 1.0 },
            ],
            &m2,
        )
        .unwrap()
        .with_seed(13)
        .with_threshold(1.0);
        let engines = standard_engines();
        let mut jobs: Vec<BatchJob<'_, '_>> = Vec::new();
        for e in &engines {
            jobs.push((e.as_ref(), &r1));
            jobs.push((e.as_ref(), &r2));
        }
        let serial = run_batch_serial(&jobs);
        for threads in [1, 2, 4, 7] {
            let parallel = run_batch(&jobs, threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn one_worker_batches_run_on_the_calling_thread() {
        /// Reports the thread each job runs on, and runs nothing.
        struct ThreadProbe(std::sync::mpsc::Sender<std::thread::ThreadId>);
        impl Propagator for ThreadProbe {
            fn name(&self) -> &'static str {
                "thread-probe"
            }
            fn means(&self) -> Means {
                Means::Removal
            }
            fn propagate(&self, _: &PropagationRequest<'_>) -> Result<PropagationReport> {
                self.0.send(std::thread::current().id()).unwrap();
                Err(Error::InvalidInput("probe only".into()))
            }
        }
        let model = |x: &[f64]| x[0];
        let request =
            PropagationRequest::new(vec![UncertainInput::Normal { mu: 0.0, sigma: 1.0 }], &model)
                .unwrap();
        let caller = std::thread::current().id();
        for (jobs, threads, on_caller) in [(1, 4, true), (3, 1, true), (2, 2, false)] {
            let (sender, ran_on) = std::sync::mpsc::channel();
            let probe = ThreadProbe(sender);
            let batch: Vec<BatchJob<'_, '_>> = (0..jobs).map(|_| (&probe as _, &request)).collect();
            assert_eq!(run_batch(&batch, threads).len(), jobs);
            let threads_used: Vec<_> = ran_on.try_iter().collect();
            assert_eq!(threads_used.len(), jobs);
            for id in threads_used {
                assert_eq!(id == caller, on_caller, "{jobs} job(s) on {threads} thread(s)");
            }
        }
    }

    #[test]
    fn chunked_driver_outputs_bit_identical_to_scalar_path() {
        let x1 = Normal::new(1.0, 2.0).unwrap();
        let x2 = Uniform::new(0.0, 1.0).unwrap();
        let refs: Vec<&dyn Continuous> = vec![&x1, &x2];
        let model = |x: &[f64]| 2.0 * x[0] + 3.0 * x[1];
        let designs: Vec<Box<dyn Design>> = vec![
            Box::new(RandomDesign),
            Box::new(LatinHypercubeDesign),
            Box::new(SobolDesign::default()),
        ];
        for design in &designs {
            for n in [1, 100, 1024, 2500] {
                let mut rng = StdRng::seed_from_u64(5);
                let scalar =
                    sysunc_sampling::propagate(&refs, design.as_ref(), &model, n, &mut rng)
                        .unwrap();
                for (width, threads) in [(1, 1), (7, 1), (256, 3), (1024, 2), (4096, 4)] {
                    let mut rng = StdRng::seed_from_u64(5);
                    let run = propagate_chunked(
                        &refs,
                        design.as_ref(),
                        &model,
                        n,
                        ChunkOptions { width, threads },
                        &mut rng,
                    )
                    .unwrap();
                    assert_eq!(run.outputs().len(), n);
                    for (i, (a, b)) in
                        run.outputs().iter().zip(&scalar.outputs).enumerate()
                    {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} n={n} width={width} threads={threads} sample {i}",
                            design.name()
                        );
                    }
                    // Fused moments: tolerance equivalence, not bit
                    // equality (documented in DESIGN.md).
                    assert!((run.mean() - scalar.mean()).abs() <= 1e-10);
                    assert!((run.variance() - scalar.variance()).abs() <= 1e-8);
                    // Counts and quantiles: bit-identical.
                    assert_eq!(
                        run.exceedance_probability(3.5).to_bits(),
                        scalar.exceedance_probability(3.5).to_bits()
                    );
                    assert_eq!(
                        SortedSample::from_slice(run.outputs()).unwrap().interpolated(0.9).to_bits(),
                        scalar.quantile(0.9).unwrap().to_bits()
                    );
                    let mut outputs = run.outputs().to_vec();
                    let selected = point_quantiles(&mut outputs, &[0.9]).unwrap();
                    assert_eq!(
                        selected[0].1.lo().to_bits(),
                        scalar.quantile(0.9).unwrap().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_driver_rejects_nan_quantiles_but_reports_moments() {
        let x1 = Uniform::new(0.0, 1.0).unwrap();
        let refs: Vec<&dyn Continuous> = vec![&x1];
        let nan_model = |_: &[f64]| f64::NAN;
        let mut rng = StdRng::seed_from_u64(3);
        let run = propagate_chunked(
            &refs,
            &RandomDesign,
            &nan_model,
            64,
            ChunkOptions::serial(),
            &mut rng,
        )
        .unwrap();
        assert!(run.mean().is_nan());
        assert!(SortedSample::from_slice(run.outputs()).is_err());
        let mut outputs = run.outputs().to_vec();
        assert!(point_quantiles(&mut outputs, &[0.5]).is_err());
        assert_eq!(point_quantiles(&mut outputs, &[]).unwrap(), vec![]);
        // Through an engine: a quantile-free request still reports.
        let req = PropagationRequest::new(vec![UncertainInput::Uniform { a: 0.0, b: 1.0 }], &nan_model)
            .unwrap()
            .with_budget(64);
        assert!(MonteCarloEngine.propagate(&req).is_err());
        let rep = MonteCarloEngine
            .propagate(&req.with_quantile_levels(Vec::new()).unwrap())
            .unwrap();
        assert!(rep.mean_estimate().is_nan() && rep.quantiles.is_empty());
    }

    #[test]
    fn dedup_by_key_groups_equal_keys_in_encounter_order() {
        let keys = ["a", "b", "a", "c", "b", "a"];
        let (uniques, assignment) = dedup_by_key(&keys);
        assert_eq!(uniques, vec![0, 1, 3], "first occurrence of a, b, c");
        assert_eq!(assignment, vec![0, 1, 0, 2, 1, 0]);
        // Fanning the unique results back out reconstructs the batch.
        let reconstructed: Vec<&str> =
            assignment.iter().map(|&slot| keys[uniques[slot]]).collect();
        assert_eq!(reconstructed, keys);
    }

    #[test]
    fn dedup_by_key_handles_empty_and_all_distinct_batches() {
        let empty: [&str; 0] = [];
        assert_eq!(dedup_by_key(&empty), (vec![], vec![]));
        let distinct = [10u64, 20, 30];
        let (uniques, assignment) = dedup_by_key(&distinct);
        assert_eq!(uniques, vec![0, 1, 2]);
        assert_eq!(assignment, vec![0, 1, 2]);
        let identical = ["x"; 5];
        let (uniques, assignment) = dedup_by_key(&identical);
        assert_eq!(uniques, vec![0]);
        assert_eq!(assignment, vec![0; 5]);
    }
}
