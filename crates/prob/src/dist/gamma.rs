//! Gamma distribution.

use super::{uniform_open01, Continuous, Normal, Support};
use crate::error::{ProbError, Result};
use crate::special::{inv_reg_lower_gamma, ln_gamma, reg_lower_gamma};
use crate::rng::RngCore;

/// Gamma distribution with shape `k` and *rate* `beta` (mean `k / beta`).
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Continuous, Gamma};
/// let g = Gamma::new(2.0, 0.5)?;
/// assert!((g.mean() - 4.0).abs() < 1e-15);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and rate.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] if either parameter is not
    /// strictly positive and finite.
    pub fn new(shape: f64, rate: f64) -> Result<Self> {
        if !shape.is_finite() || !rate.is_finite() || shape <= 0.0 || rate <= 0.0 {
            return Err(ProbError::InvalidParameter(format!(
                "Gamma requires shape > 0 and rate > 0, got ({shape}, {rate})"
            )));
        }
        Ok(Self { shape, rate })
    }

    /// Creates a gamma distribution from shape and *scale* `theta = 1/rate`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] under the same conditions as
    /// [`Gamma::new`].
    pub fn from_shape_scale(shape: f64, scale: f64) -> Result<Self> {
        if scale <= 0.0 || !scale.is_finite() {
            return Err(ProbError::InvalidParameter(format!(
                "Gamma requires scale > 0, got {scale}"
            )));
        }
        Self::new(shape, 1.0 / scale)
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `beta`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Marsaglia–Tsang sampler for shape >= 1 (rate 1).
    fn sample_standard(&self, rng: &mut dyn RngCore) -> f64 {
        let shape = self.shape;
        if shape < 1.0 {
            // Boost: X_a = X_{a+1} * U^{1/a}.
            let boosted = Gamma { shape: shape + 1.0, rate: 1.0 };
            let x = boosted.sample_standard(rng);
            let u = uniform_open01(rng);
            return x * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let norm = Normal::standard();
        loop {
            let z = norm.sample(rng);
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = uniform_open01(rng);
            if u < 1.0 - 0.0331 * z.powi(4) || u.ln() < 0.5 * z * z + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Continuous for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 || (x == 0.0 && self.shape < 1.0) {
            f64::NEG_INFINITY
        } else if x == 0.0 {
            #[expect(
                clippy::float_cmp,
                reason = "shape = 1 exactly is the exponential case, whose density at 0 is finite"
            )]
            if self.shape == 1.0 {
                self.rate.ln()
            } else {
                f64::NEG_INFINITY
            }
        } else {
            self.shape * self.rate.ln() + (self.shape - 1.0) * x.ln()
                - self.rate * x
                - ln_gamma(self.shape)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.shape, self.rate * x)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        inv_reg_lower_gamma(self.shape, p) / self.rate
    }

    fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }

    fn support(&self) -> Support {
        Support::non_negative()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_standard(rng) / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::from_shape_scale(1.0, -2.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        use crate::dist::Exponential;
        let g = Gamma::new(1.0, 2.0).unwrap();
        let e = Exponential::new(2.0).unwrap();
        for &x in &[0.1, 0.5, 1.0, 3.0] {
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-12);
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_round_trip() {
        let g = Gamma::new(3.5, 1.7).unwrap();
        testutil::check_quantile_cdf_round_trip(&g, &[0.3, 1.0, 2.0, 5.0], 1e-8);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let g = Gamma::new(2.5, 1.0).unwrap();
        testutil::check_pdf_integrates_to_cdf(&g, 0.1, 6.0, 1e-9);
    }

    #[test]
    fn sampling_moments_shape_above_one() {
        let g = Gamma::new(4.0, 2.0).unwrap();
        testutil::check_sample_moments(&g, 31, 300_000, 5.0);
    }

    #[test]
    fn sampling_moments_shape_below_one() {
        let g = Gamma::new(0.5, 1.0).unwrap();
        testutil::check_sample_moments(&g, 37, 400_000, 5.0);
    }
}
