//! The three workloads and the seeded request generators behind them.
//!
//! Every input is derived from the `--seed` argument, so the same seed
//! gives the same requests. The server only ever receives the generated
//! request bytes.

use sysunc::prob::json::{self, Json, ToJson};
use sysunc::prob::rng::{Rng, SeedableRng, StdRng};
use sysunc::{UncertainInput, WireRequest};

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of fresh Monte Carlo requests: every one a cache miss.
    ColdMc,
    /// Closed loop of 8-job batches over all five engines.
    BatchMixed,
    /// Closed loop through a 2-shard fleet front: fresh Monte Carlo
    /// requests, one call in four a respelled repeat of an earlier one.
    FleetMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::ColdMc, Workload::BatchMixed, Workload::FleetMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMc => "cold-mc",
            Workload::BatchMixed => "batch-mixed",
            Workload::FleetMixed => "fleet-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// A tag mixed into the seed so workloads draw disjoint streams.
    fn tag(self) -> u64 {
        match self {
            Workload::ColdMc => 0x636f_6c64,
            Workload::BatchMixed => 0x6261_7463,
            Workload::FleetMixed => 0x666c_6565,
        }
    }

    /// The generator for stream `stream` (a client, or the key set).
    pub fn rng(self, seed: u64, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            seed ^ self.tag().rotate_left(17) ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
    }
}

/// Monte Carlo budget of `cold-mc` and `fleet-mixed` requests: below the
/// 4-chunk threshold (4,096) of `ChunkOptions::auto`, so the serial chunk
/// path runs. A scheduling stall adds a few milliseconds to the calls it
/// hits whatever their size, so calls near the threshold, rather than at
/// 2,048, halve its relative effect on `latency_p99_us`.
pub const MC_BUDGET: usize = 4000;

/// Request seeds stay below 2^53, exact for JSON readers that parse
/// numbers as doubles.
const SEED_BOUND: u64 = 1 << 53;

/// Jobs per `batch-mixed` call.
pub const BATCH_JOBS: usize = 8;

fn unit(rng: &mut StdRng) -> f64 {
    rng.random::<f64>()
}

fn between(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * unit(rng)
}

/// A rounded draw, so request bodies stay short and readable.
fn param(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (between(rng, lo, hi) * 1000.0).round() / 1000.0
}

fn normal(rng: &mut StdRng) -> UncertainInput {
    UncertainInput::Normal {
        mu: param(rng, -2.0, 2.0),
        sigma: param(rng, 0.2, 1.5),
    }
}

/// A fresh Monte Carlo request over `sum` (2–3 inputs) or
/// `linear-2x3y` (2 inputs), Normal-dominated.
pub fn mc_request(rng: &mut StdRng) -> WireRequest {
    let linear = unit(rng) < 0.5;
    let dims = if linear || unit(rng) < 0.5 { 2 } else { 3 };
    let mut inputs: Vec<UncertainInput> = (0..dims).map(|_| normal(rng)).collect();
    if dims == 3 {
        let a = param(rng, -1.0, 1.0);
        inputs[2] = UncertainInput::Uniform {
            a,
            b: a + param(rng, 0.5, 2.0),
        };
    }
    let model = if linear { "linear-2x3y" } else { "sum" };
    let mut wire = WireRequest::new("monte-carlo", model, inputs);
    wire.budget = MC_BUDGET;
    wire.seed = below(rng, SEED_BOUND);
    wire
}

/// The exact output mean of an `mc_request` (sum or 2x + 3y of the
/// input means).
pub fn exact_mean(wire: &WireRequest) -> Option<f64> {
    let means: Vec<f64> = wire
        .inputs
        .iter()
        .map(|i| match *i {
            UncertainInput::Normal { mu, .. } => Some(mu),
            UncertainInput::Uniform { a, b } => Some((a + b) / 2.0),
            _ => None,
        })
        .collect::<Option<_>>()?;
    match wire.model.as_str() {
        "sum" => Some(means.iter().sum()),
        "linear-2x3y" => Some(2.0 * means.first()? + 3.0 * means.get(1)?),
        _ => None,
    }
}

/// A draw below `bound`.
fn below(rng: &mut StdRng, bound: u64) -> u64 {
    sysunc::prob::rng::RngCore::next_u64(rng) % bound
}

/// The spellings of one key that all canonicalize to the same request:
/// the compact encoding, members in reverse order, pretty-printed
/// whitespace, and the default members omitted.
pub fn spellings(wire: &WireRequest) -> Vec<String> {
    let compact = json::to_string(wire);
    let doc = wire.to_json();
    let Json::Obj(members) = doc.clone() else {
        return vec![compact];
    };
    let reversed = Json::Obj(members.iter().rev().cloned().collect()).emit();
    let pretty = doc.emit_pretty();
    let defaults = WireRequest::new("", "", Vec::new());
    let trimmed: Vec<(String, Json)> = members
        .into_iter()
        .filter(|(k, v)| match k.as_str() {
            "threshold" => !v.is_null(),
            "quantile_levels" => wire.quantile_levels != defaults.quantile_levels,
            _ => true,
        })
        .collect();
    vec![compact, reversed, pretty, Json::Obj(trimmed).emit()]
}

/// One `batch-mixed` job slot: engine, model, inputs and budget. The
/// 16,384 budgets thread inside `propagate_chunked`. Beta quantiles cost
/// ~200× a Normal one, so the Beta-sampling job (slot 5, `heavy`) rides
/// in one batch of four and a cheap Sobol job takes its place otherwise.
fn batch_job(slot: usize, heavy: bool, rng: &mut StdRng) -> WireRequest {
    let beta = |rng: &mut StdRng| UncertainInput::Beta {
        alpha: param(rng, 1.5, 4.0),
        beta: param(rng, 1.5, 4.0),
    };
    let expo = |rng: &mut StdRng| UncertainInput::Exponential {
        rate: param(rng, 0.5, 3.0),
    };
    let pos = |rng: &mut StdRng, lo: f64, hi: f64| {
        let a = param(rng, lo, hi);
        UncertainInput::Uniform {
            a,
            b: a + param(rng, 0.1 * a, 0.5 * a),
        }
    };
    let (engine, model, inputs, budget) = match slot {
        0 => ("monte-carlo", "sum", vec![normal(rng), expo(rng)], 2048),
        1 => (
            "latin-hypercube",
            "product",
            vec![pos(rng, 0.5, 2.0), expo(rng)],
            16_384,
        ),
        2 => (
            "sobol-qmc",
            "orbital-period",
            vec![pos(rng, 0.5, 2.0), pos(rng, 0.5, 2.0), pos(rng, 1.0, 5.0)],
            2048,
        ),
        3 => (
            "pce-spectral",
            "missed-hazard",
            vec![pos(rng, 0.1, 0.4), pos(rng, 0.1, 0.4)],
            2048,
        ),
        4 => (
            "evidential",
            "sum",
            vec![normal(rng), beta(rng), interval(rng)],
            16_384,
        ),
        _ if heavy => (
            "monte-carlo",
            "missed-hazard",
            vec![beta(rng), pos(rng, 0.1, 0.4)],
            2048,
        ),
        _ => ("sobol-qmc", "sum", vec![normal(rng), expo(rng)], 2048),
    };
    let mut wire = WireRequest::new(engine, model, inputs);
    wire.budget = budget;
    wire.seed = below(rng, SEED_BOUND);
    wire
}

fn interval(rng: &mut StdRng) -> UncertainInput {
    let lo = param(rng, -1.0, 1.0);
    UncertainInput::Interval {
        lo,
        hi: lo + param(rng, 0.1, 1.0),
    }
}

/// Distinct job slots per batch; the rest of [`BATCH_JOBS`] repeat
/// earlier jobs of the same batch.
pub const BATCH_UNIQUE: usize = 6;

/// The next `batch-mixed` call: six distinct jobs covering all five
/// engines plus two repeats of earlier jobs, in shuffled order.
pub fn batch_call(rng: &mut StdRng) -> Vec<WireRequest> {
    let heavy = below(rng, 4) == 0;
    let mut jobs: Vec<WireRequest> = (0..BATCH_UNIQUE)
        .map(|slot| batch_job(slot, heavy, rng))
        .collect();
    while jobs.len() < BATCH_JOBS {
        let pick = below(rng, BATCH_UNIQUE as u64) as usize;
        jobs.push(jobs[pick].clone());
    }
    for i in (1..jobs.len()).rev() {
        let j = below(rng, i as u64 + 1) as usize;
        jobs.swap(i, j);
    }
    jobs
}

/// The `POST /v1/propagate/batch` body for `jobs`.
pub fn batch_body(jobs: &[WireRequest]) -> String {
    let encoded: Vec<String> = jobs.iter().map(json::to_string).collect();
    format!("{{\"jobs\":[{}]}}", encoded.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc::CanonicalRequest;

    /// The first `n` requests of stream 1 of `workload` under `seed`.
    fn requests(workload: Workload, seed: u64, n: usize) -> Vec<WireRequest> {
        let mut rng = workload.rng(seed, 1);
        (0..n).map(|_| mc_request(&mut rng)).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        let text = |seed| -> Vec<String> {
            requests(Workload::ColdMc, seed, 64)
                .iter()
                .map(json::to_string)
                .collect()
        };
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
    }

    #[test]
    fn every_spelling_canonicalizes_to_its_key() {
        for wire in requests(Workload::FleetMixed, 3, 64) {
            let key = CanonicalRequest::from_wire(&wire).expect("canonical");
            let forms = spellings(&wire);
            assert_eq!(forms.len(), 4);
            for text in &forms {
                let back: WireRequest = json::from_str(text).expect("decodes");
                assert_eq!(CanonicalRequest::from_wire(&back).expect("canonical"), key);
            }
            let distinct: std::collections::BTreeSet<&String> = forms.iter().collect();
            assert_eq!(distinct.len(), forms.len(), "spellings differ as text");
        }
    }

    #[test]
    fn batches_cover_every_engine_with_two_repeats() {
        let mut rng = Workload::BatchMixed.rng(1, 0);
        for _ in 0..20 {
            let jobs = batch_call(&mut rng);
            assert_eq!(jobs.len(), BATCH_JOBS);
            for engine in sysunc::ENGINE_NAMES {
                assert!(jobs.iter().any(|j| j.engine == *engine), "{engine} missing");
            }
            let keys: std::collections::BTreeSet<String> =
                jobs.iter().map(json::to_string).collect();
            assert_eq!(keys.len(), BATCH_UNIQUE);
        }
    }

    #[test]
    fn exact_means_follow_the_model() {
        let mut wire = WireRequest::new(
            "monte-carlo",
            "linear-2x3y",
            vec![
                UncertainInput::Normal {
                    mu: 1.0,
                    sigma: 1.0,
                },
                UncertainInput::Uniform { a: 0.0, b: 2.0 },
            ],
        );
        assert_eq!(exact_mean(&wire), Some(5.0));
        wire.model = "sum".into();
        assert_eq!(exact_mean(&wire), Some(2.0));
    }
}
