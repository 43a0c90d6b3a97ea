//! Truncated normal distribution.

use super::{Continuous, Normal, Support};
use crate::error::{ProbError, Result};
use crate::rng::RngCore;

/// A normal distribution truncated to `[a, b]`.
///
/// The standard representation of a physical quantity with known hard
/// limits but Gaussian belief inside them (e.g. a sensor reading clipped
/// to its range) — restricting the support is the distributional analogue
/// of the paper's *operational design domain restriction* (uncertainty
/// prevention).
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Continuous, TruncatedNormal};
/// let t = TruncatedNormal::new(0.0, 1.0, -1.0, 1.0)?;
/// assert_eq!(t.cdf(-1.0), 0.0);
/// assert_eq!(t.cdf(1.0), 1.0);
/// assert!(t.variance() < 1.0); // truncation removes spread
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    base: Normal,
    a: f64,
    b: f64,
    /// CDF of the base at `a` and `b` (cached).
    cdf_a: f64,
    cdf_b: f64,
}

impl TruncatedNormal {
    /// Creates a normal `N(mu, sigma²)` truncated to `[a, b]`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] if the base parameters are
    /// invalid, `a >= b`, or the truncation interval carries negligible
    /// probability mass (< 1e-12).
    pub fn new(mu: f64, sigma: f64, a: f64, b: f64) -> Result<Self> {
        let base = Normal::new(mu, sigma)?;
        if !(a < b) || !a.is_finite() || !b.is_finite() {
            return Err(ProbError::InvalidParameter(format!(
                "TruncatedNormal requires finite a < b, got ({a}, {b})"
            )));
        }
        let cdf_a = base.cdf(a);
        let cdf_b = base.cdf(b);
        if cdf_b - cdf_a < 1e-12 {
            return Err(ProbError::InvalidParameter(
                "truncation interval carries negligible probability".into(),
            ));
        }
        Ok(Self { base, a, b, cdf_a, cdf_b })
    }

    /// Lower truncation bound.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Upper truncation bound.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The untruncated base distribution.
    pub fn base(&self) -> &Normal {
        &self.base
    }

    fn mass(&self) -> f64 {
        self.cdf_b - self.cdf_a
    }
}

impl Continuous for TruncatedNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.a || x > self.b {
            0.0
        } else {
            self.base.pdf(x) / self.mass()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.a {
            0.0
        } else if x >= self.b {
            1.0
        } else {
            (self.base.cdf(x) - self.cdf_a) / self.mass()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "TruncatedNormal::quantile: p in [0,1], got {p}");
        if p == 0.0 {
            return self.a;
        }
        #[expect(
            clippy::float_cmp,
            reason = "p = 1 is the exact closed end of the probability domain"
        )]
        if p == 1.0 {
            return self.b;
        }
        self.base
            .quantile(self.cdf_a + p * self.mass())
            .clamp(self.a, self.b)
    }

    fn mean(&self) -> f64 {
        // mu + sigma (phi(alpha) - phi(beta)) / Z.
        let alpha = (self.a - self.base.mu()) / self.base.sigma();
        let beta = (self.b - self.base.mu()) / self.base.sigma();
        let phi = crate::special::standard_normal_pdf;
        self.base.mu() + self.base.sigma() * (phi(alpha) - phi(beta)) / self.mass()
    }

    fn variance(&self) -> f64 {
        let alpha = (self.a - self.base.mu()) / self.base.sigma();
        let beta = (self.b - self.base.mu()) / self.base.sigma();
        let phi = crate::special::standard_normal_pdf;
        let z = self.mass();
        let term1 = (alpha * phi(alpha) - beta * phi(beta)) / z;
        let term2 = (phi(alpha) - phi(beta)) / z;
        self.base.sigma().powi(2) * (1.0 + term1 - term2 * term2)
    }

    fn support(&self) -> Support {
        Support::new(self.a, self.b)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Rejection from the base is efficient when the interval holds
        // non-trivial mass; otherwise inverse transform.
        if self.mass() > 0.25 {
            loop {
                let x = self.base.sample(rng);
                if x >= self.a && x <= self.b {
                    return x;
                }
            }
        } else {
            self.quantile(super::uniform_open01(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(TruncatedNormal::new(0.0, 1.0, 1.0, 1.0).is_err());
        assert!(TruncatedNormal::new(0.0, 1.0, 2.0, 1.0).is_err());
        assert!(TruncatedNormal::new(0.0, 1.0, 50.0, 51.0).is_err()); // negligible mass
    }

    #[test]
    fn symmetric_truncation_preserves_mean() {
        let t = TruncatedNormal::new(5.0, 2.0, 3.0, 7.0).unwrap();
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!(t.variance() < 4.0);
    }

    #[test]
    fn one_sided_truncation_shifts_mean() {
        let t = TruncatedNormal::new(0.0, 1.0, 0.0, 8.0).unwrap();
        // Half-normal mean = sqrt(2/pi).
        assert!((t.mean() - (2.0 / std::f64::consts::PI).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn quantile_cdf_round_trip() {
        let t = TruncatedNormal::new(1.0, 2.0, -1.0, 2.5).unwrap();
        testutil::check_quantile_cdf_round_trip(&t, &[-0.5, 0.0, 1.0, 2.0], 1e-9);
        assert_eq!(t.quantile(0.0), -1.0);
        assert_eq!(t.quantile(1.0), 2.5);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let t = TruncatedNormal::new(0.0, 1.0, -1.5, 0.5).unwrap();
        testutil::check_pdf_integrates_to_cdf(&t, -1.5, 0.5, 1e-9);
    }

    #[test]
    fn sampling_stays_inside_and_matches_moments() {
        let t = TruncatedNormal::new(0.0, 1.0, -1.0, 2.0).unwrap();
        let mut rng = testutil::rng(2024);
        for x in t.sample_n(&mut rng, 5_000) {
            assert!((-1.0..=2.0).contains(&x));
        }
        testutil::check_sample_moments(&t, 81, 300_000, 5.0);
    }

    #[test]
    fn narrow_tail_truncation_uses_inverse_transform() {
        // Mass in [3, 4] is ~1.3e-3 < 0.25, exercising the quantile path.
        let t = TruncatedNormal::new(0.0, 1.0, 3.0, 4.0).unwrap();
        let mut rng = testutil::rng(7);
        for x in t.sample_n(&mut rng, 2_000) {
            assert!((3.0..=4.0).contains(&x));
        }
    }
}
