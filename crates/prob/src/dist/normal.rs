//! Normal (Gaussian) distribution.

use super::{Continuous, Support};
use crate::error::{ProbError, Result};
use crate::special::{
    inverse_standard_normal_cdf, standard_normal_cdf, LN_SQRT_2PI,
};
use crate::rng::RngCore;

/// Normal distribution `N(mu, sigma^2)` parameterized by mean and *standard
/// deviation*.
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Continuous, Normal};
/// let n = Normal::new(10.0, 2.0)?;
/// assert!((n.quantile(0.5) - 10.0).abs() < 1e-12);
/// assert!((n.variance() - 4.0).abs() < 1e-15);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] if `sigma <= 0` or either
    /// parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() || !sigma.is_finite() || sigma <= 0.0 {
            return Err(ProbError::InvalidParameter(format!(
                "Normal requires finite mu and sigma > 0, got mu={mu}, sigma={sigma}"
            )));
        }
        Ok(Self { mu, sigma })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self { mu: 0.0, sigma: 1.0 }
    }

    /// The mean parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The standard-deviation parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Continuous for Normal {
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - LN_SQRT_2PI
    }

    fn cdf(&self, x: f64) -> f64 {
        standard_normal_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * inverse_standard_normal_cdf(p)
    }

    fn quantile_fill(&self, ps: &[f64], out: &mut [f64]) {
        assert_eq!(ps.len(), out.len(), "quantile_fill: slice lengths differ");
        // Same expression as `quantile`, one `inverse_standard_normal_cdf`
        // call per element, so results are bit-identical; hoisting the
        // dispatch and parameters out of the loop is the whole batch gain.
        let (mu, sigma) = (self.mu, self.sigma);
        for (y, &p) in out.iter_mut().zip(ps) {
            *y = mu + sigma * inverse_standard_normal_cdf(p);
        }
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn support(&self) -> Support {
        Support::real_line()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Marsaglia polar method: exact, no trig, two uniforms per pair.
        use crate::rng::Rng as _;
        loop {
            let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mu + self.sigma * u * factor;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn pdf_peak_and_symmetry() {
        let n = Normal::new(3.0, 2.0).unwrap();
        assert!((n.pdf(3.0) - 1.0 / (2.0 * (2.0 * std::f64::consts::PI).sqrt())).abs() < 1e-15);
        assert!((n.pdf(1.0) - n.pdf(5.0)).abs() < 1e-15);
    }

    #[test]
    fn cdf_known_values() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((n.cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
    }

    #[test]
    fn quantile_cdf_round_trip() {
        let n = Normal::new(-1.0, 0.5).unwrap();
        testutil::check_quantile_cdf_round_trip(&n, &[-3.0, -1.5, -1.0, 0.0, 1.0], 1e-9);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let n = Normal::new(0.0, 1.0).unwrap();
        testutil::check_pdf_integrates_to_cdf(&n, -2.0, 2.0, 1e-10);
    }

    #[test]
    fn sampling_moments() {
        let n = Normal::new(5.0, 3.0).unwrap();
        testutil::check_sample_moments(&n, 42, 200_000, 4.0);
    }

    #[test]
    fn chunked_fills_match_scalar_calls() {
        testutil::check_fills_match_scalar(&Normal::new(-2.0, 0.7).unwrap(), 34);
    }
}
