//! Parametric probability distributions.
//!
//! The paper ("System Theoretic View on Uncertainties", Sec. II-A) treats
//! probabilistic models as one of the two fundamental model families; this
//! module provides the quantitative machinery for them. Every distribution
//! implements [`Continuous`] or [`Discrete`], both of which are object-safe
//! so heterogeneous collections of input uncertainties can be propagated by
//! the sampling and PCE crates.
//!
//! Aleatory uncertainty (Sec. III-A) is *represented* by these objects; the
//! epistemic uncertainty of their parameters is handled one level up (e.g.
//! by intervals in `sysunc-evidence` or posterior credibility in
//! `sysunc-perception`).

mod bernoulli;
mod beta;
mod binomial;
mod categorical;
mod dirichlet;
mod exponential;
mod gamma;
mod lognormal;
mod mixture;
mod normal;
mod poisson;
mod student_t;
mod triangular;
mod truncated;
mod uniform;
mod weibull;

pub use bernoulli::Bernoulli;
pub use beta::Beta;
pub use binomial::Binomial;
pub use categorical::Categorical;
pub use dirichlet::Dirichlet;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use normal::Normal;
pub use poisson::Poisson;
pub use student_t::StudentT;
pub use triangular::Triangular;
pub use truncated::TruncatedNormal;
pub use uniform::Uniform;
pub use weibull::Weibull;

use crate::rng::RngCore;

/// Support (domain) of a univariate continuous distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Support {
    /// Lower endpoint (may be `-inf`).
    pub lower: f64,
    /// Upper endpoint (may be `+inf`).
    pub upper: f64,
}

impl Support {
    /// Creates a support interval.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either endpoint is NaN.
    pub fn new(lower: f64, upper: f64) -> Self {
        assert!(!lower.is_nan() && !upper.is_nan(), "Support: endpoints must not be NaN");
        assert!(lower <= upper, "Support: lower must be <= upper");
        Self { lower, upper }
    }

    /// The whole real line.
    pub fn real_line() -> Self {
        Self { lower: f64::NEG_INFINITY, upper: f64::INFINITY }
    }

    /// The non-negative half line `[0, inf)`.
    pub fn non_negative() -> Self {
        Self { lower: 0.0, upper: f64::INFINITY }
    }

    /// Whether `x` lies in the (closed) support.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower && x <= self.upper
    }
}

/// A univariate continuous probability distribution.
///
/// Object-safe: sampling takes a `&mut dyn RngCore` so trait objects can be
/// stored in heterogeneous input vectors for propagation.
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Continuous, Normal};
/// let n = Normal::new(0.0, 1.0)?;
/// assert!((n.cdf(0.0) - 0.5).abs() < 1e-15);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
pub trait Continuous: std::fmt::Debug + Send + Sync {
    /// Probability density function at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Natural logarithm of the density at `x` (negative infinity outside the
    /// support).
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) for `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `p` is outside `[0, 1]`.
    fn quantile(&self, p: f64) -> f64;

    /// Fills `out[i] = quantile(ps[i])` for a whole chunk of
    /// probabilities — one virtual dispatch per chunk instead of one per
    /// element, the building block of the struct-of-arrays propagation
    /// kernels.
    ///
    /// The default loops over [`Continuous::quantile`]; distributions
    /// with closed-form inverse CDFs override it with straight-line
    /// loops the autovectorizer can handle. Overrides must stay
    /// bit-identical to elementwise `quantile` calls.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ; implementations panic when
    /// any `p` is outside `[0, 1]`.
    fn quantile_fill(&self, ps: &[f64], out: &mut [f64]) {
        assert_eq!(ps.len(), out.len(), "quantile_fill: slice lengths differ");
        for (y, &p) in out.iter_mut().zip(ps) {
            *y = self.quantile(p);
        }
    }

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Standard deviation of the distribution.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The support interval of the distribution.
    fn support(&self) -> Support;

    /// Draws one sample.
    ///
    /// The default implementation uses inverse-transform sampling via
    /// [`Continuous::quantile`]; distributions override it when a faster
    /// exact scheme exists (e.g. Marsaglia–Tsang for the gamma).
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.quantile(uniform_open01(rng))
    }

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Draws samples into a caller-provided slice — the chunked
    /// counterpart of [`Continuous::sample_n`] for struct-of-arrays
    /// buffers that must not reallocate per draw.
    fn sample_fill(&self, rng: &mut dyn RngCore, out: &mut [f64]) {
        for y in out.iter_mut() {
            *y = self.sample(rng);
        }
    }
}

/// A univariate discrete probability distribution over `u64` outcomes.
pub trait Discrete: std::fmt::Debug + Send + Sync {
    /// Probability mass function `P(X = k)`.
    fn pmf(&self, k: u64) -> f64;

    /// Natural logarithm of the mass at `k`.
    fn ln_pmf(&self, k: u64) -> f64 {
        self.pmf(k).ln()
    }

    /// Cumulative distribution function `P(X <= k)`.
    fn cdf(&self, k: u64) -> f64;

    /// Smallest `k` with `cdf(k) >= p`.
    fn quantile(&self, p: f64) -> u64;

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> u64;

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut dyn RngCore, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Draws a uniform variate in the *open* interval `(0, 1)`, suitable for
/// inverse-transform sampling (avoids infinities at the endpoints).
pub(crate) fn uniform_open01(rng: &mut dyn RngCore) -> f64 {
    use crate::rng::Rng as _;
    loop {
        let u: f64 = rng.random();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for distribution unit tests.
    use super::*;
    use crate::rng::StdRng;
    use crate::rng::SeedableRng;

    /// Deterministic RNG for reproducible tests.
    pub(crate) fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Checks `quantile(cdf(x)) == x` on a grid inside the support.
    pub(crate) fn check_quantile_cdf_round_trip<D: Continuous>(d: &D, xs: &[f64], tol: f64) {
        for &x in xs {
            let p = d.cdf(x);
            if p > 1e-12 && p < 1.0 - 1e-12 {
                let x2 = d.quantile(p);
                assert!(
                    (x2 - x).abs() <= tol * (1.0 + x.abs()),
                    "round trip failed at x={x}: quantile(cdf(x))={x2}"
                );
            }
        }
    }

    /// Checks that the CDF is the integral of the PDF by a crude Simpson rule
    /// between two points.
    pub(crate) fn check_pdf_integrates_to_cdf<D: Continuous>(d: &D, a: f64, b: f64, tol: f64) {
        let n = 20_001;
        let h = (b - a) / (n - 1) as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let x = a + i as f64 * h;
            let w = if i == 0 || i == n - 1 {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            };
            acc += w * d.pdf(x);
        }
        acc *= h / 3.0;
        let expect = d.cdf(b) - d.cdf(a);
        assert!(
            (acc - expect).abs() < tol,
            "pdf does not integrate to cdf: got {acc}, expected {expect}"
        );
    }

    /// Checks that `quantile_fill` is bit-identical to elementwise
    /// `quantile` calls (the chunked-kernel determinism contract) and
    /// that `sample_fill` matches `sample_n` under the same seed. The
    /// far tails (below `e⁻²⁵ ≈ 1.4e-11`, the inverse normal's last
    /// branch) and the served clamp ends `1e-15`, `1 − 1e-15` ride along
    /// with the uniform grid, which never reaches them.
    pub(crate) fn check_fills_match_scalar<D: Continuous>(d: &D, seed: u64) {
        let ps: Vec<f64> = (0..257)
            .map(|i| (i as f64 + 0.5) / 257.0)
            .chain([1e-15, 1e-12, 1.0 - 1e-12, 1.0 - 1e-15])
            .collect();
        let mut out = vec![0.0; ps.len()];
        d.quantile_fill(&ps, &mut out);
        for (&p, &y) in ps.iter().zip(&out) {
            assert_eq!(y, d.quantile(p), "quantile_fill diverges at p={p}");
        }
        let expect = d.sample_n(&mut rng(seed), 64);
        let mut got = vec![0.0; 64];
        d.sample_fill(&mut rng(seed), &mut got);
        assert_eq!(got, expect, "sample_fill diverges from sample_n");
    }

    /// Checks sample mean/variance against the analytic values.
    pub(crate) fn check_sample_moments<D: Continuous>(d: &D, seed: u64, n: usize, tol_sigmas: f64) {
        let mut r = rng(seed);
        let xs = d.sample_n(&mut r, n);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let se_mean = d.std_dev() / (n as f64).sqrt();
        assert!(
            (mean - d.mean()).abs() < tol_sigmas * se_mean,
            "sample mean {mean} too far from {} (se {se_mean})",
            d.mean()
        );
        // Crude check on the variance (within 10% for large n).
        assert!(
            (var - d.variance()).abs() < 0.1 * d.variance().max(1e-12),
            "sample variance {var} too far from {}",
            d.variance()
        );
    }
}
