//! Student's t distribution.

use super::{Continuous, Gamma, Normal, Support};
use crate::error::{ProbError, Result};
use crate::special::{inv_reg_inc_beta, ln_gamma, reg_inc_beta};
use crate::rng::RngCore;

/// Student's t distribution with `nu` degrees of freedom, location `mu`
/// and scale `sigma`.
///
/// The small-sample sampling distribution of a standardized mean — the
/// natural *epistemic* error model when a quantity is estimated from few
/// observations; heavier tails than the normal encode the extra ignorance.
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Continuous, StudentT};
/// let t = StudentT::new(5.0, 0.0, 1.0)?;
/// assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!(t.variance() > 1.0); // heavier than N(0,1)
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
    mu: f64,
    sigma: f64,
}

impl StudentT {
    /// Creates a Student-t distribution.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] unless `nu > 0` and
    /// `sigma > 0` (all finite).
    pub fn new(nu: f64, mu: f64, sigma: f64) -> Result<Self> {
        if !nu.is_finite() || !mu.is_finite() || !sigma.is_finite() || nu <= 0.0 || sigma <= 0.0 {
            return Err(ProbError::InvalidParameter(format!(
                "StudentT requires nu > 0 and sigma > 0, got (nu={nu}, mu={mu}, sigma={sigma})"
            )));
        }
        Ok(Self { nu, mu, sigma })
    }

    /// Degrees of freedom.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// Location.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Standardized CDF of the t distribution with `nu` dof.
    fn std_cdf(nu: f64, t: f64) -> f64 {
        // I_x(nu/2, 1/2) with x = nu / (nu + t²) gives the two-sided tail.
        let x = nu / (nu + t * t);
        let tail = 0.5 * reg_inc_beta(nu / 2.0, 0.5, x);
        if t >= 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }
}

impl Continuous for StudentT {
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        ln_gamma((self.nu + 1.0) / 2.0)
            - ln_gamma(self.nu / 2.0)
            - 0.5 * (self.nu * std::f64::consts::PI).ln()
            - self.sigma.ln()
            - 0.5 * (self.nu + 1.0) * (1.0 + z * z / self.nu).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        Self::std_cdf(self.nu, (x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "StudentT::quantile: p in [0,1], got {p}");
        if p == 0.0 {
            return f64::NEG_INFINITY;
        }
        #[expect(
            clippy::float_cmp,
            reason = "p = 1 is the exact closed end of the probability domain"
        )]
        if p == 1.0 {
            return f64::INFINITY;
        }
        // Invert via the incomplete beta: for p >= 1/2,
        // x = nu/(nu + t²) solves I_x(nu/2, 1/2) = 2(1 - p).
        let (tail, sign) = if p >= 0.5 { (2.0 * (1.0 - p), 1.0) } else { (2.0 * p, -1.0) };
        let x = inv_reg_inc_beta(self.nu / 2.0, 0.5, tail);
        let t = ((self.nu * (1.0 - x)) / x.max(1e-300)).sqrt();
        self.mu + self.sigma * sign * t
    }

    fn mean(&self) -> f64 {
        if self.nu > 1.0 {
            self.mu
        } else {
            f64::NAN
        }
    }

    fn variance(&self) -> f64 {
        if self.nu > 2.0 {
            self.sigma * self.sigma * self.nu / (self.nu - 2.0)
        } else {
            f64::INFINITY
        }
    }

    fn support(&self) -> Support {
        Support::real_line()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // t = Z / sqrt(V / nu) with Z ~ N(0,1), V ~ chi²(nu).
        let z = Normal::standard().sample(rng);
        #[expect(clippy::expect_used, reason = "nu was validated positive at construction")]
        let v = Gamma::new(self.nu / 2.0, 0.5).expect("validated").sample(rng);
        self.mu + self.sigma * z / (v / self.nu).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(StudentT::new(0.0, 0.0, 1.0).is_err());
        assert!(StudentT::new(1.0, 0.0, 0.0).is_err());
        assert!(StudentT::new(f64::NAN, 0.0, 1.0).is_err());
    }

    #[test]
    fn cdf_known_quantiles() {
        // t_{0.975, 5} = 2.570582; t_{0.975, 10} = 2.228139.
        let t5 = StudentT::new(5.0, 0.0, 1.0).unwrap();
        assert!((t5.quantile(0.975) - 2.570_582).abs() < 1e-4);
        let t10 = StudentT::new(10.0, 0.0, 1.0).unwrap();
        assert!((t10.quantile(0.975) - 2.228_139).abs() < 1e-4);
        assert!((t10.cdf(2.228_139) - 0.975).abs() < 1e-6);
    }

    #[test]
    fn symmetric_about_location() {
        let t = StudentT::new(3.0, 2.0, 1.5).unwrap();
        assert!((t.pdf(1.0) - t.pdf(3.0)).abs() < 1e-14);
        assert!((t.cdf(2.0) - 0.5).abs() < 1e-12);
        assert!((t.quantile(0.3) + t.quantile(0.7) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn converges_to_normal_for_large_nu() {
        let t = StudentT::new(1e6, 0.0, 1.0).unwrap();
        let n = Normal::standard();
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            assert!((t.cdf(x) - n.cdf(x)).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn quantile_cdf_round_trip() {
        let t = StudentT::new(4.0, -1.0, 2.0).unwrap();
        testutil::check_quantile_cdf_round_trip(&t, &[-5.0, -1.0, 0.5, 3.0], 1e-7);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let t = StudentT::new(6.0, 0.0, 1.0).unwrap();
        testutil::check_pdf_integrates_to_cdf(&t, -3.0, 3.0, 1e-9);
    }

    #[test]
    fn sampling_moments() {
        let t = StudentT::new(8.0, 3.0, 2.0).unwrap();
        testutil::check_sample_moments(&t, 71, 400_000, 6.0);
    }

    #[test]
    fn heavy_tail_moments() {
        let t1 = StudentT::new(1.0, 0.0, 1.0).unwrap(); // Cauchy
        assert!(t1.mean().is_nan());
        assert!(t1.variance().is_infinite());
        let t2 = StudentT::new(2.5, 0.0, 1.0).unwrap();
        assert!(t2.variance().is_finite());
    }
}
