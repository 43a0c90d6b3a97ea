//! The wire schema of the propagation service: JSON forms of
//! [`PropagationRequest`]/[`PropagationReport`] plus name-based engine
//! and model registries.
//!
//! An in-process [`PropagationRequest`] borrows its model as `&dyn
//! Model` — nothing a byte stream can carry. The wire form
//! ([`WireRequest`]) instead *names* a model registered in a
//! [`ModelRegistry`] and an engine from the fixed engine catalog, and
//! the serving layer resolves both names back to the in-process types.
//! This mirrors the machine-readable uncertainty-analysis interfaces of
//! the SysML-v2 modeling line of work: an analysis request is data, the
//! executable model stays on the server.
//!
//! Everything here round-trips through the in-tree
//! [`sysunc_prob::json`] reader/writer; floats use the shortest
//! round-tripping representation, so a decoded report is bit-identical
//! to the report the engine produced.

use crate::error::{Error, Result};
use crate::propagator::{
    EvidentialEngine, LatinHypercubeEngine, Model, MonteCarloEngine, PropagationReport,
    PropagationRequest, Propagator, SobolEngine, SpectralEngine, UncertainInput,
};
use sysunc_evidence::Interval;
use sysunc_prob::json::writer::JsonWriter;
use sysunc_prob::json::{field, obj, FromJson, Json, JsonError, ToJson};

/// The stable names of the engine catalog, in report order.
pub const ENGINE_NAMES: &[&str] =
    &["monte-carlo", "latin-hypercube", "sobol-qmc", "pce-spectral", "evidential"];

/// Constructs the engine with the given catalog name (default
/// configuration), or `None` for unknown names.
pub fn engine_by_name(name: &str) -> Option<Box<dyn Propagator + Send + Sync>> {
    match name {
        "monte-carlo" => Some(Box::new(MonteCarloEngine)),
        "latin-hypercube" => Some(Box::new(LatinHypercubeEngine)),
        "sobol-qmc" => Some(Box::new(SobolEngine)),
        "pce-spectral" => Some(Box::new(SpectralEngine::default())),
        "evidential" => Some(Box::new(EvidentialEngine::default())),
        _ => None,
    }
}

/// Interns an engine name against the catalog, recovering the
/// `&'static str` identity a [`PropagationReport`] carries.
fn intern_engine_name(name: &str) -> Option<&'static str> {
    ENGINE_NAMES.iter().find(|n| **n == name).copied()
}

/// A named catalog of deterministic models the serving layer can run.
///
/// Models are registered once at startup and looked up by name per
/// request; the registry is immutable while shared, so it can sit
/// behind an `Arc` across worker threads without locking. Each entry
/// also records how many inputs the model reads, so a request with the
/// wrong count is refused before it reaches the model.
#[derive(Default)]
pub struct ModelRegistry {
    entries: Vec<RegisteredModel>,
}

/// One registry entry: the model, its name, and its fixed input count
/// (`None` when the model folds any non-empty input vector).
struct RegisteredModel {
    name: String,
    inputs: Option<usize>,
    model: Box<dyn Model + Send + Sync>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a model that accepts any non-empty input vector (a fold
    /// such as `sum`) under a unique non-empty name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for empty or duplicate names.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        model: Box<dyn Model + Send + Sync>,
    ) -> Result<()> {
        self.insert(name.into(), None, model)
    }

    /// Registers a model that reads exactly `inputs` inputs under a
    /// unique non-empty name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for empty or duplicate names and
    /// for `inputs == 0`.
    pub fn register_with_inputs(
        &mut self,
        name: impl Into<String>,
        inputs: usize,
        model: Box<dyn Model + Send + Sync>,
    ) -> Result<()> {
        if inputs == 0 {
            return Err(Error::InvalidInput("a model reads at least one input".into()));
        }
        self.insert(name.into(), Some(inputs), model)
    }

    fn insert(
        &mut self,
        name: String,
        inputs: Option<usize>,
        model: Box<dyn Model + Send + Sync>,
    ) -> Result<()> {
        if name.is_empty() {
            return Err(Error::InvalidInput("model name must be non-empty".into()));
        }
        if self.get(&name).is_some() {
            return Err(Error::InvalidInput(format!("duplicate model name '{name}'")));
        }
        self.entries.push(RegisteredModel { name, inputs, model });
        Ok(())
    }

    /// The model registered under `name`.
    pub fn get(&self, name: &str) -> Option<&(dyn Model + Send + Sync)> {
        self.entry(name).map(|e| e.model.as_ref())
    }

    fn entry(&self, name: &str) -> Option<&RegisteredModel> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Checks that the model registered under `name` reads `inputs`
    /// inputs: exactly its registered count, or any count >= 1 for a
    /// model registered without one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for unknown names and for input
    /// counts the model does not read.
    pub fn check_inputs(&self, name: &str, inputs: usize) -> Result<()> {
        let entry = self
            .entry(name)
            .ok_or_else(|| Error::InvalidInput(format!("unknown model '{name}'")))?;
        match entry.inputs {
            Some(n) if n != inputs => Err(Error::InvalidInput(format!(
                "model '{name}' takes {n} input{}, got {inputs}",
                if n == 1 { "" } else { "s" }
            ))),
            None if inputs == 0 => Err(Error::InvalidInput(format!(
                "model '{name}' takes at least 1 input, got 0"
            ))),
            _ => Ok(()),
        }
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The standard model catalog served out of the box: closed-form
    /// toy models plus the paper-derived orbital and perception
    /// adapters.
    ///
    /// | name | inputs | output |
    /// |---|---|---|
    /// | `sum` | any count ≥ 1 | `Σ xᵢ` |
    /// | `linear-2x3y` | 2 | `2 x₀ + 3 x₁` |
    /// | `product` | any count ≥ 1 | `Π xᵢ` |
    /// | `orbital-period` | `[m1, m2, d]` | circular two-body period |
    /// | `orbital-energy` | `[m1, m2, d]` | total mechanical energy |
    /// | `missed-hazard` | `[p_ped, p_novel]` | missed-hazard rate of the Table I camera |
    ///
    /// # Errors
    ///
    /// Propagates construction failures of the paper case-study models
    /// (impossible for the built-in constants).
    pub fn standard() -> Result<Self> {
        let mut reg = Self::new();
        reg.register("sum", Box::new(SumModel))?;
        reg.register_with_inputs("linear-2x3y", 2, Box::new(Linear2x3yModel))?;
        reg.register("product", Box::new(ProductModel))?;
        reg.register_with_inputs(
            "orbital-period",
            3,
            Box::new(sysunc_orbital::TwoBodyPeriodModel),
        )?;
        reg.register_with_inputs(
            "orbital-energy",
            3,
            Box::new(sysunc_orbital::TwoBodyEnergyModel),
        )?;
        reg.register_with_inputs(
            "missed-hazard",
            2,
            Box::new(sysunc_perception::MissedHazardModel::paper_camera()?),
        )?;
        Ok(reg)
    }
}

/// Folds whole columns into `out` the way `Iterator::sum` and
/// `Iterator::product` fold one row: from the empty fold's value, one
/// column at a time, accumulator on the left — the same float
/// operations in the same order as the row fold, so bit-identical.
fn fold_columns(columns: &[&[f64]], out: &mut [f64], empty: f64, op: impl Fn(f64, f64) -> f64) {
    let rows = out.len();
    out.fill(empty);
    for column in columns {
        for (y, &x) in out.iter_mut().zip(&column[..rows]) {
            *y = op(*y, x);
        }
    }
}

/// The registry's `sum`: `Σ xᵢ` over any number of inputs.
struct SumModel;

impl Model for SumModel {
    fn eval(&self, x: &[f64]) -> f64 {
        x.iter().sum::<f64>()
    }

    fn eval_batch(&self, columns: &[&[f64]], out: &mut [f64]) {
        fold_columns(columns, out, self.eval(&[]), |sum, x| sum + x);
    }
}

/// The registry's `product`: `Π xᵢ` over any number of inputs.
struct ProductModel;

impl Model for ProductModel {
    fn eval(&self, x: &[f64]) -> f64 {
        x.iter().product::<f64>()
    }

    fn eval_batch(&self, columns: &[&[f64]], out: &mut [f64]) {
        fold_columns(columns, out, self.eval(&[]), |product, x| product * x);
    }
}

/// The registry's `linear-2x3y`: `2 x₀ + 3 x₁`.
struct Linear2x3yModel;

impl Model for Linear2x3yModel {
    fn eval(&self, x: &[f64]) -> f64 {
        2.0 * x.first().copied().unwrap_or(0.0) + 3.0 * x.get(1).copied().unwrap_or(0.0)
    }

    fn eval_batch(&self, columns: &[&[f64]], out: &mut [f64]) {
        // The registry admits exactly two inputs.
        assert!(columns.len() >= 2, "linear-2x3y needs [x0, x1]");
        let (x0, x1) = (&columns[0][..out.len()], &columns[1][..out.len()]);
        for ((y, &a), &b) in out.iter_mut().zip(x0).zip(x1) {
            *y = 2.0 * a + 3.0 * b;
        }
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry").field("names", &self.names()).finish()
    }
}

/// The serializable form of a propagation problem: engine and model by
/// name, everything else by value. Defaults mirror
/// [`PropagationRequest::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Engine catalog name (see [`ENGINE_NAMES`]).
    pub engine: String,
    /// Registered model name (see [`ModelRegistry`]).
    pub model: String,
    /// Input declarations, one per model dimension.
    pub inputs: Vec<UncertainInput>,
    /// Evaluation budget.
    pub budget: usize,
    /// Seed all engine randomness derives from.
    pub seed: u64,
    /// Quantile levels to report, each in `(0, 1)`.
    pub quantile_levels: Vec<f64>,
    /// Optional exceedance query `P(Y > threshold)`.
    pub threshold: Option<f64>,
}

impl WireRequest {
    /// A request with the same defaults as [`PropagationRequest::new`]:
    /// budget 4096, seed 2020, quantiles 5% / 50% / 95%, no threshold.
    pub fn new(
        engine: impl Into<String>,
        model: impl Into<String>,
        inputs: Vec<UncertainInput>,
    ) -> Self {
        Self {
            engine: engine.into(),
            model: model.into(),
            inputs,
            budget: 4096,
            seed: 2020,
            quantile_levels: vec![0.05, 0.5, 0.95],
            threshold: None,
        }
    }

    /// Constructs the named engine from the catalog.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for names outside [`ENGINE_NAMES`].
    pub fn resolve_engine(&self) -> Result<Box<dyn Propagator + Send + Sync>> {
        engine_by_name(&self.engine).ok_or_else(|| {
            Error::Unsupported(format!(
                "unknown engine '{}'; known engines: {}",
                self.engine,
                ENGINE_NAMES.join(", ")
            ))
        })
    }

    /// Binds the request to a resolved model reference, producing the
    /// in-process [`PropagationRequest`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when inputs are empty or the
    /// quantile levels leave `(0, 1)`.
    pub fn to_request<'m>(&self, model: &'m dyn Model) -> Result<PropagationRequest<'m>> {
        PropagationRequest::new(self.inputs.clone(), model)?
            .with_budget(self.budget)
            .with_seed(self.seed)
            .with_quantile_levels(self.quantile_levels.clone())
            .map(|r| match self.threshold {
                Some(t) => r.with_threshold(t),
                None => r,
            })
    }
}

impl ToJson for WireRequest {
    fn to_json(&self) -> Json {
        obj([
            ("engine", self.engine.to_json()),
            ("model", self.model.to_json()),
            ("inputs", self.inputs.to_json()),
            ("budget", self.budget.to_json()),
            ("seed", self.seed.to_json()),
            ("quantile_levels", self.quantile_levels.to_json()),
            ("threshold", self.threshold.to_json()),
        ])
    }
}

impl FromJson for WireRequest {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let defaults = WireRequest::new("", "", Vec::new());
        let opt = |key: &str| v.get(key).filter(|j| !j.is_null());
        Ok(WireRequest {
            engine: field(v, "engine")?,
            model: field(v, "model")?,
            inputs: field(v, "inputs")?,
            budget: match opt("budget") {
                Some(j) => usize::from_json(j)?,
                None => defaults.budget,
            },
            seed: match opt("seed") {
                Some(j) => u64::from_json(j)?,
                None => defaults.seed,
            },
            quantile_levels: match opt("quantile_levels") {
                Some(j) => Vec::from_json(j)?,
                None => defaults.quantile_levels,
            },
            threshold: match v.get("threshold") {
                Some(j) => Option::from_json(j)?,
                None => None,
            },
        })
    }
}

/// FNV-1a/64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a/64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a/64 hash of a byte string — the in-tree content hash the
/// canonical request pipeline is keyed on. Stable across platforms and
/// releases by construction (pure integer arithmetic, no per-process
/// state), so cache keys and batch dedup agree between runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A [`WireRequest`] reduced to one canonical byte form plus its
/// content hash — the shared identity of the serving pipeline.
///
/// Two wire bodies that decode to the same propagation problem (same
/// engine, model, inputs, budget, seed, quantile levels, threshold)
/// produce the same canonical bytes regardless of member order, float
/// spelling (`1.0` vs `1e0`), whitespace, or omitted-default members in
/// the original JSON text. Normalization comes in three steps:
///
/// 1. **decode** — the body is parsed into a [`WireRequest`], which
///    applies defaults and erases all textual variation;
/// 2. **canonical emission** — the struct is re-emitted with members
///    in a fixed sorted order and floats in the shortest
///    round-tripping representation (the strict in-tree writer);
/// 3. **hash** — FNV-1a/64 over the canonical bytes.
///
/// `quantile_levels` is *not* sorted or deduplicated: its order is
/// observable in the report, so reordering would merge requests whose
/// responses differ. The engine name is interned against
/// [`ENGINE_NAMES`], so constructing a `CanonicalRequest` also proves
/// the engine exists.
///
/// Consumers that cannot tolerate hash collisions (the response cache,
/// intra-batch dedup) key on the full canonical bytes and use the hash
/// only for shard/bucket placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalRequest {
    engine: &'static str,
    bytes: String,
    hash: u64,
}

impl CanonicalRequest {
    /// Canonicalizes a decoded [`WireRequest`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] for engines outside
    /// [`ENGINE_NAMES`] and [`Error::InvalidInput`] when a float member
    /// is non-finite (unrepresentable in canonical JSON).
    pub fn from_wire(wire: &WireRequest) -> Result<Self> {
        let engine = intern_engine_name(&wire.engine).ok_or_else(|| {
            Error::Unsupported(format!(
                "unknown engine '{}'; known engines: {}",
                wire.engine,
                ENGINE_NAMES.join(", ")
            ))
        })?;
        let bytes = canonical_bytes(engine, wire).map_err(|e| {
            Error::InvalidInput(format!("request has no canonical form: {e}"))
        })?;
        let hash = fnv1a64(bytes.as_bytes());
        Ok(Self { engine, bytes, hash })
    }

    /// The interned engine name (guaranteed to be in [`ENGINE_NAMES`]).
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// The canonical JSON encoding the hash is computed over.
    pub fn bytes(&self) -> &str {
        &self.bytes
    }

    /// The FNV-1a/64 content hash of [`CanonicalRequest::bytes`].
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// The content hash as 16 lowercase hex digits (for logs/headers).
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Emits the canonical JSON encoding: object members in sorted order
/// (`budget`, `engine`, `inputs`, `model`, `quantile_levels`, `seed`,
/// `threshold` — the last omitted when `None`), each input with its
/// variant members sorted alongside the `dist` tag, floats in the
/// shortest round-tripping representation.
fn canonical_bytes(
    engine: &'static str,
    wire: &WireRequest,
) -> std::result::Result<String, JsonError> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("budget").u64(wire.budget as u64);
    w.key("engine").string(engine);
    w.key("inputs").begin_array();
    for input in &wire.inputs {
        w.begin_object();
        match *input {
            UncertainInput::Beta { alpha, beta } => {
                w.key("alpha").f64(alpha);
                w.key("beta").f64(beta);
                w.key("dist").string("beta");
            }
            UncertainInput::Exponential { rate } => {
                w.key("dist").string("exponential");
                w.key("rate").f64(rate);
            }
            UncertainInput::Interval { lo, hi } => {
                w.key("dist").string("interval");
                w.key("hi").f64(hi);
                w.key("lo").f64(lo);
            }
            UncertainInput::Normal { mu, sigma } => {
                w.key("dist").string("normal");
                w.key("mu").f64(mu);
                w.key("sigma").f64(sigma);
            }
            UncertainInput::Uniform { a, b } => {
                w.key("a").f64(a);
                w.key("b").f64(b);
                w.key("dist").string("uniform");
            }
        }
        w.end_object();
    }
    w.end_array();
    w.key("model").string(&wire.model);
    w.key("quantile_levels").begin_array();
    for level in &wire.quantile_levels {
        w.f64(*level);
    }
    w.end_array();
    w.key("seed").u64(wire.seed);
    if let Some(threshold) = wire.threshold {
        w.key("threshold").f64(threshold);
    }
    w.end_object();
    w.finish()
}

impl ToJson for UncertainInput {
    fn to_json(&self) -> Json {
        match *self {
            UncertainInput::Normal { mu, sigma } => obj([
                ("dist", Json::Str("normal".into())),
                ("mu", mu.to_json()),
                ("sigma", sigma.to_json()),
            ]),
            UncertainInput::Uniform { a, b } => obj([
                ("dist", Json::Str("uniform".into())),
                ("a", a.to_json()),
                ("b", b.to_json()),
            ]),
            UncertainInput::Exponential { rate } => {
                obj([("dist", Json::Str("exponential".into())), ("rate", rate.to_json())])
            }
            UncertainInput::Beta { alpha, beta } => obj([
                ("dist", Json::Str("beta".into())),
                ("alpha", alpha.to_json()),
                ("beta", beta.to_json()),
            ]),
            UncertainInput::Interval { lo, hi } => obj([
                ("dist", Json::Str("interval".into())),
                ("lo", lo.to_json()),
                ("hi", hi.to_json()),
            ]),
        }
    }
}

impl FromJson for UncertainInput {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let tag: String = field(v, "dist")?;
        let input = match tag.as_str() {
            "normal" => {
                UncertainInput::Normal { mu: field(v, "mu")?, sigma: field(v, "sigma")? }
            }
            "uniform" => UncertainInput::Uniform { a: field(v, "a")?, b: field(v, "b")? },
            "exponential" => UncertainInput::Exponential { rate: field(v, "rate")? },
            "beta" => {
                UncertainInput::Beta { alpha: field(v, "alpha")?, beta: field(v, "beta")? }
            }
            "interval" => UncertainInput::Interval { lo: field(v, "lo")?, hi: field(v, "hi")? },
            other => {
                return Err(JsonError::decode(format!(
                    "unknown input dist '{other}' (expected normal | uniform | \
                     exponential | beta | interval)"
                )))
            }
        };
        for (name, x) in input_params(&input) {
            if !x.is_finite() {
                return Err(JsonError::decode(format!(
                    "input parameter '{name}' must be finite"
                )));
            }
        }
        Ok(input)
    }
}

/// The numeric parameters of an input declaration, for validation.
fn input_params(input: &UncertainInput) -> Vec<(&'static str, f64)> {
    match *input {
        UncertainInput::Normal { mu, sigma } => vec![("mu", mu), ("sigma", sigma)],
        UncertainInput::Uniform { a, b } => vec![("a", a), ("b", b)],
        UncertainInput::Exponential { rate } => vec![("rate", rate)],
        UncertainInput::Beta { alpha, beta } => vec![("alpha", alpha), ("beta", beta)],
        UncertainInput::Interval { lo, hi } => vec![("lo", lo), ("hi", hi)],
    }
}

/// The JSON form of an [`Interval`]: `{"lo": …, "hi": …}`.
pub fn interval_to_json(iv: &Interval) -> Json {
    obj([("lo", iv.lo().to_json()), ("hi", iv.hi().to_json())])
}

/// Decodes `{"lo": …, "hi": …}` back into a validated [`Interval`].
///
/// # Errors
///
/// Returns [`JsonError::Decode`] for missing members or an invalid
/// (`lo > hi`, NaN) interval.
pub fn interval_from_json(v: &Json) -> std::result::Result<Interval, JsonError> {
    let lo: f64 = field(v, "lo")?;
    let hi: f64 = field(v, "hi")?;
    Interval::new(lo, hi).map_err(|e| JsonError::decode(e.to_string()))
}

impl ToJson for PropagationReport {
    fn to_json(&self) -> Json {
        let quantiles: Vec<Json> = self
            .quantiles
            .iter()
            .map(|(p, iv)| obj([("level", p.to_json()), ("bounds", interval_to_json(iv))]))
            .collect();
        obj([
            ("engine", self.engine.to_json()),
            ("means", self.means.to_json()),
            ("kind", self.kind.to_json()),
            ("mean", interval_to_json(&self.mean)),
            ("variance", interval_to_json(&self.variance)),
            ("quantiles", Json::Arr(quantiles)),
            (
                "exceedance",
                match &self.exceedance {
                    Some(iv) => interval_to_json(iv),
                    None => Json::Null,
                },
            ),
            ("evaluations", self.evaluations.to_json()),
        ])
    }
}

impl FromJson for PropagationReport {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let engine: String = field(v, "engine")?;
        let engine = intern_engine_name(&engine).ok_or_else(|| {
            JsonError::decode(format!("unknown engine '{engine}' in report"))
        })?;
        let quantiles = v
            .get("quantiles")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::missing("quantiles"))?
            .iter()
            .map(|q| {
                let level: f64 = field(q, "level")?;
                let bounds = q.get("bounds").ok_or_else(|| JsonError::missing("bounds"))?;
                Ok((level, interval_from_json(bounds)?))
            })
            .collect::<std::result::Result<Vec<_>, JsonError>>()?;
        let exceedance = match v.get("exceedance") {
            Some(j) if !j.is_null() => Some(interval_from_json(j)?),
            _ => None,
        };
        Ok(PropagationReport {
            engine,
            means: field(v, "means")?,
            kind: field(v, "kind")?,
            mean: interval_from_json(
                v.get("mean").ok_or_else(|| JsonError::missing("mean"))?,
            )?,
            variance: interval_from_json(
                v.get("variance").ok_or_else(|| JsonError::missing("variance"))?,
            )?,
            quantiles,
            exceedance,
            evaluations: field(v, "evaluations")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::json;

    fn sample_wire_request() -> WireRequest {
        let mut req = WireRequest::new(
            "monte-carlo",
            "linear-2x3y",
            vec![
                UncertainInput::Normal { mu: 1.0, sigma: 2.0 },
                UncertainInput::Uniform { a: 0.0, b: 1.0 },
            ],
        );
        req.budget = 2000;
        req.seed = 7;
        req.threshold = Some(3.5);
        req
    }

    #[test]
    fn wire_request_round_trips() {
        let req = sample_wire_request();
        let text = json::to_string(&req);
        let back: WireRequest = json::from_str(&text).expect("decodes");
        assert_eq!(req, back);
    }

    #[test]
    fn wire_request_defaults_apply_when_members_are_absent() {
        let text = r#"{"engine":"evidential","model":"sum",
                       "inputs":[{"dist":"interval","lo":0.0,"hi":1.0}]}"#;
        let req: WireRequest = json::from_str(text).expect("decodes");
        assert_eq!(req.budget, 4096);
        assert_eq!(req.seed, 2020);
        assert_eq!(req.quantile_levels, vec![0.05, 0.5, 0.95]);
        assert_eq!(req.threshold, None);
    }

    #[test]
    fn every_input_variant_round_trips() {
        let inputs = vec![
            UncertainInput::Normal { mu: -1.5, sigma: 0.25 },
            UncertainInput::Uniform { a: 0.0, b: 2.0 },
            UncertainInput::Exponential { rate: 3.0 },
            UncertainInput::Beta { alpha: 2.0, beta: 5.0 },
            UncertainInput::Interval { lo: -0.5, hi: 0.5 },
        ];
        let text = json::to_string(&inputs);
        let back: Vec<UncertainInput> = json::from_str(&text).expect("decodes");
        assert_eq!(inputs, back);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(json::from_str::<UncertainInput>(r#"{"dist":"cauchy","x0":0.0}"#).is_err());
        assert!(json::from_str::<UncertainInput>(r#"{"mu":0.0,"sigma":1.0}"#).is_err());
        // Non-finite parameters cannot appear in valid JSON (no NaN
        // literal), but `null`-degraded floats decode as missing.
        assert!(
            json::from_str::<UncertainInput>(r#"{"dist":"normal","mu":null,"sigma":1.0}"#)
                .is_err()
        );
    }

    #[test]
    fn engine_catalog_resolves_every_name_and_rejects_others() {
        for name in ENGINE_NAMES {
            let engine = engine_by_name(name).expect("catalog name");
            assert_eq!(engine.name(), *name);
        }
        assert!(engine_by_name("simulated-annealing").is_none());
        let mut req = sample_wire_request();
        assert_eq!(req.resolve_engine().expect("known").name(), "monte-carlo");
        req.engine = "nope".into();
        assert!(matches!(req.resolve_engine(), Err(Error::Unsupported(_))));
    }

    #[test]
    fn standard_registry_serves_the_documented_catalog() {
        let reg = ModelRegistry::standard().expect("builds");
        for name in
            ["sum", "linear-2x3y", "product", "orbital-period", "orbital-energy", "missed-hazard"]
        {
            assert!(reg.get(name).is_some(), "missing model '{name}'");
        }
        assert_eq!(reg.len(), 6);
        let linear = reg.get("linear-2x3y").expect("registered");
        assert_eq!(linear.eval(&[1.0, 1.0]), 5.0);
        assert!(reg.get("unknown").is_none());
    }

    /// Values that expose a kernel doing other float operations than
    /// `eval`: signed zeros, infinities, NaN, subnormals, the ends of
    /// the normal range, and values whose sums and products round.
    const AWKWARD: [f64; 16] = [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -2.2e-308,
        f64::MIN_POSITIVE,
        f64::MAX,
        1.5,
        -3.25,
        0.1,
        1.0 / 3.0,
        0.7,
        123.456,
        -2.9e-3,
    ];

    /// `width` columns of `rows` values, cycling through [`AWKWARD`] at
    /// a different stride per column so every row mixes them.
    fn awkward_columns(width: usize, rows: usize) -> Vec<Vec<f64>> {
        (0..width)
            .map(|j| (0..rows).map(|i| AWKWARD[(i * (2 * j + 1) + j) % AWKWARD.len()]).collect())
            .collect()
    }

    #[test]
    fn closed_form_models_evaluate_columns_bit_identically_to_rows() {
        let reg = ModelRegistry::standard().expect("builds");
        let rows = 150;
        for (name, widths) in [("sum", 1..=5), ("product", 1..=5), ("linear-2x3y", 2..=3)] {
            let model = reg.get(name).expect("registered");
            for width in widths {
                let columns = awkward_columns(width, rows);
                let views: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
                let mut out = vec![7.0; rows];
                model.eval_batch(&views, &mut out);
                for (i, y) in out.iter().enumerate() {
                    let row: Vec<f64> = columns.iter().map(|c| c[i]).collect();
                    assert_eq!(
                        y.to_bits(),
                        model.eval(&row).to_bits(),
                        "{name} over {width} columns, row {i}: {row:?}"
                    );
                }
            }
        }
        // Every value of a single column passes through `sum` and
        // `product` untouched, -0.0 included.
        for name in ["sum", "product"] {
            let model = reg.get(name).expect("registered");
            let column = [-0.0, -0.0, 5e-324, f64::NEG_INFINITY];
            let mut out = [1.0; 4];
            model.eval_batch(&[&column], &mut out);
            let bits: Vec<u64> = out.iter().map(|y| y.to_bits()).collect();
            let expected: Vec<u64> = column.iter().map(|y| y.to_bits()).collect();
            assert_eq!(bits, expected, "{name} of one column");
        }
        assert_eq!(reg.get("sum").expect("registered").eval(&[-0.0]).to_bits(), (-0.0f64).to_bits());
        // No columns: the empty fold, as `eval(&[])` gives it.
        for name in ["sum", "product"] {
            let model = reg.get(name).expect("registered");
            let mut out = [7.0; 3];
            model.eval_batch(&[], &mut out);
            assert!(out.iter().all(|y| y.to_bits() == model.eval(&[]).to_bits()), "{name}");
        }
    }

    #[test]
    fn registry_rejects_duplicates_and_empty_names() {
        let mut reg = ModelRegistry::new();
        assert!(reg.is_empty());
        reg.register("m", Box::new(|x: &[f64]| x[0])).expect("first");
        assert!(reg.register("m", Box::new(|x: &[f64]| x[0])).is_err());
        assert!(reg.register("", Box::new(|x: &[f64]| x[0])).is_err());
        assert_eq!(reg.names(), vec!["m"]);
    }

    #[test]
    fn wire_request_binds_to_the_in_process_request() {
        let wire = sample_wire_request();
        let reg = ModelRegistry::standard().expect("builds");
        let model = reg.get(&wire.model).expect("registered");
        let req = wire.to_request(model).expect("valid");
        assert_eq!(req.budget, 2000);
        assert_eq!(req.seed, 7);
        assert_eq!(req.threshold, Some(3.5));
        let engine = wire.resolve_engine().expect("known");
        let report = engine.propagate(&req).expect("runs");
        assert!((report.mean_estimate() - 3.5).abs() < 0.5);
    }

    #[test]
    fn report_round_trips_bit_identically_for_every_engine() {
        let reg = ModelRegistry::standard().expect("builds");
        let model = reg.get("linear-2x3y").expect("registered");
        for engine_name in ENGINE_NAMES {
            let mut wire = sample_wire_request();
            wire.engine = (*engine_name).into();
            wire.budget = 600;
            let req = wire.to_request(model).expect("valid");
            let engine = wire.resolve_engine().expect("known");
            let report = engine.propagate(&req).expect("runs");
            let text = json::to_string(&report);
            let back: PropagationReport = json::from_str(&text).expect("decodes");
            assert_eq!(report, back, "{engine_name} report must round-trip exactly");
        }
    }

    #[test]
    fn fnv1a64_matches_the_published_test_vectors() {
        // Offset basis and the classic reference vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canonical_form_is_invariant_under_json_spelling() {
        // Same propagation problem, four textual spellings: member
        // order, float notation, whitespace, omitted defaults.
        let texts = [
            r#"{"engine":"monte-carlo","model":"sum",
                "inputs":[{"dist":"normal","mu":1.0,"sigma":0.5}],
                "budget":4096,"seed":2020,
                "quantile_levels":[0.05,0.5,0.95],"threshold":null}"#,
            r#"{"model":"sum","engine":"monte-carlo",
                "inputs":[{"sigma":0.5,"mu":1.0,"dist":"normal"}]}"#,
            r#"{"engine":"monte-carlo","model":"sum","seed":2020,
                "inputs":[{"dist":"normal","mu":1e0,"sigma":5e-1}]}"#,
            "{\"engine\":\"monte-carlo\",\"model\":\"sum\",\t\n \
             \"inputs\":[{\"dist\":\"normal\",\"mu\":1.00,\"sigma\":0.50}]}",
        ];
        let canons: Vec<CanonicalRequest> = texts
            .iter()
            .map(|t| {
                let wire: WireRequest = json::from_str(t).expect("decodes");
                CanonicalRequest::from_wire(&wire).expect("canonicalizes")
            })
            .collect();
        for c in &canons[1..] {
            assert_eq!(c.bytes(), canons[0].bytes());
            assert_eq!(c.content_hash(), canons[0].content_hash());
        }
        assert_eq!(canons[0].engine(), "monte-carlo");
        assert_eq!(canons[0].hash_hex().len(), 16);
        // The canonical encoding itself decodes back to the same
        // request — canonicalization is a fixed point.
        let back: WireRequest = json::from_str(canons[0].bytes()).expect("decodes");
        let again = CanonicalRequest::from_wire(&back).expect("canonicalizes");
        assert_eq!(again, canons[0]);
    }

    #[test]
    fn distinct_problems_get_distinct_canonical_bytes() {
        let base = sample_wire_request();
        let canon = |w: &WireRequest| CanonicalRequest::from_wire(w).expect("canonical");
        let reference = canon(&base);
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(canon(&seed), reference);
        let mut budget = base.clone();
        budget.budget += 1;
        assert_ne!(canon(&budget), reference);
        let mut threshold = base.clone();
        threshold.threshold = None;
        assert_ne!(canon(&threshold), reference);
        let mut engine = base.clone();
        engine.engine = "evidential".into();
        assert_ne!(canon(&engine), reference);
        // Quantile order is observable in the report, so it must not
        // be normalized away.
        let mut levels = base.clone();
        levels.quantile_levels = vec![0.95, 0.5, 0.05];
        assert_ne!(canon(&levels), reference);
    }

    #[test]
    fn canonicalization_rejects_unknown_engines_and_non_finite_floats() {
        let mut wire = sample_wire_request();
        wire.engine = "warp".into();
        assert!(matches!(
            CanonicalRequest::from_wire(&wire),
            Err(Error::Unsupported(_))
        ));
        let mut wire = sample_wire_request();
        wire.threshold = Some(f64::NAN);
        assert!(matches!(
            CanonicalRequest::from_wire(&wire),
            Err(Error::InvalidInput(_))
        ));
    }

    #[test]
    fn report_decode_rejects_foreign_engines_and_bad_intervals() {
        let reg = ModelRegistry::standard().expect("builds");
        let model = reg.get("sum").expect("registered");
        let wire = WireRequest::new(
            "monte-carlo",
            "sum",
            vec![UncertainInput::Uniform { a: 0.0, b: 1.0 }],
        );
        let req = wire.to_request(model).expect("valid");
        let report = wire.resolve_engine().expect("known").propagate(&req).expect("runs");
        let mut doc = json::parse(&json::to_string(&report)).expect("parses");
        if let Json::Obj(members) = &mut doc {
            for (k, v) in members.iter_mut() {
                if k == "engine" {
                    *v = Json::Str("other".into());
                }
            }
        }
        assert!(json::from_str::<PropagationReport>(&doc.emit()).is_err());
        assert!(interval_from_json(&json::parse(r#"{"lo":2.0,"hi":1.0}"#).expect("parses"))
            .is_err());
    }
}
