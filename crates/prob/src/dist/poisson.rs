//! Poisson distribution.

use super::Discrete;
use crate::error::{ProbError, Result};
use crate::special::{ln_factorial, reg_upper_gamma};
use crate::rng::RngCore;

/// Poisson distribution with mean `lambda`.
///
/// Models counts of rare events per exposure unit — e.g. the number of
/// novel ("ontological") scenario encounters per million kilometres in the
/// field-observation experiments.
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Discrete, Poisson};
/// let p = Poisson::new(3.0)?;
/// assert!((p.mean() - 3.0).abs() < 1e-15);
/// assert!((p.pmf(0) - (-3.0f64).exp()).abs() < 1e-14);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] if `lambda <= 0` or
    /// non-finite.
    pub fn new(lambda: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(ProbError::InvalidParameter(format!(
                "Poisson requires lambda > 0, got {lambda}"
            )));
        }
        Ok(Self { lambda })
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Knuth's multiplication sampler; valid for moderate `lambda`.
    fn sample_knuth(lambda: f64, rng: &mut dyn RngCore) -> u64 {
        use crate::rng::Rng as _;
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut prod: f64 = rng.random();
        while prod > limit {
            k += 1;
            prod *= rng.random::<f64>();
        }
        k
    }
}

impl Discrete for Poisson {
    fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    fn ln_pmf(&self, k: u64) -> f64 {
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    fn cdf(&self, k: u64) -> f64 {
        // P(X <= k) = Q(k + 1, lambda)
        reg_upper_gamma(k as f64 + 1.0, self.lambda)
    }

    fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "Poisson::quantile: p in [0,1], got {q}");
        #[expect(
            clippy::float_cmp,
            reason = "q = 1 is the exact closed end of the probability domain"
        )]
        if q == 1.0 {
            return u64::MAX;
        }
        // Start near mean, then linear scan (few steps in practice).
        let mut k = self.lambda.floor().max(0.0) as u64;
        // Walk down while the CDF at k-1 still exceeds q.
        while k > 0 && self.cdf(k - 1) >= q {
            k -= 1;
        }
        // Walk up while the CDF at k is below q.
        while self.cdf(k) < q {
            k += 1;
        }
        k
    }

    fn mean(&self) -> f64 {
        self.lambda
    }

    fn variance(&self) -> f64 {
        self.lambda
    }

    fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        // Split large lambda into chunks (Poisson additivity) so Knuth's
        // method never underflows.
        let mut remaining = self.lambda;
        let mut total = 0u64;
        while remaining > 30.0 {
            total += Self::sample_knuth(30.0, rng);
            remaining -= 30.0;
        }
        total + Self::sample_knuth(remaining, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_lambda() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let p = Poisson::new(4.5).unwrap();
        let total: f64 = (0..100).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_matches_pmf_sum() {
        let p = Poisson::new(2.5).unwrap();
        let mut acc = 0.0;
        for k in 0..20u64 {
            acc += p.pmf(k);
            assert!((p.cdf(k) - acc).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn quantile_is_generalized_inverse() {
        let p = Poisson::new(7.0).unwrap();
        for &q in &[0.001, 0.2, 0.5, 0.8, 0.999] {
            let k = p.quantile(q);
            assert!(p.cdf(k) >= q);
            if k > 0 {
                assert!(p.cdf(k - 1) < q);
            }
        }
    }

    #[test]
    fn sample_mean_small_and_large_lambda() {
        for &lambda in &[0.5, 5.0, 120.0] {
            let p = Poisson::new(lambda).unwrap();
            let mut rng = testutil::rng(lambda as u64 + 3);
            let n = 50_000;
            let mean: f64 =
                p.sample_n(&mut rng, n).iter().map(|&x| x as f64).sum::<f64>() / n as f64;
            let se = (lambda / n as f64).sqrt();
            assert!((mean - lambda).abs() < 5.0 * se, "lambda={lambda} mean={mean}");
        }
    }
}
