//! Beta distribution.

use super::{Continuous, Gamma, Support};
use crate::error::{ProbError, Result};
use crate::special::IncompleteBeta;
use crate::rng::RngCore;

/// Beta distribution on `[0, 1]` with shape parameters `alpha` and `beta`.
///
/// The conjugate prior for Bernoulli/binomial observation processes; used by
/// the perception crate to track *epistemic* credibility of classification
/// probabilities as field observations accumulate (paper Sec. III-B: "our
/// knowledge increases and the epistemic uncertainty decreases with every
/// observation").
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Beta, Continuous};
/// let b = Beta::new(2.0, 5.0)?;
/// assert!((b.mean() - 2.0 / 7.0).abs() < 1e-15);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
    /// `I_x(alpha, beta)` with `ln B(alpha, beta)` computed once.
    inc: IncompleteBeta,
}

impl Beta {
    /// Creates a beta distribution with shapes `alpha`, `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] if either shape is not
    /// strictly positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Result<Self> {
        if !alpha.is_finite() || !beta.is_finite() || alpha <= 0.0 || beta <= 0.0 {
            return Err(ProbError::InvalidParameter(format!(
                "Beta requires alpha > 0 and beta > 0, got ({alpha}, {beta})"
            )));
        }
        Ok(Self::from_shapes(alpha, beta))
    }

    fn from_shapes(alpha: f64, beta: f64) -> Self {
        Self { alpha, beta, inc: IncompleteBeta::new(alpha, beta) }
    }

    /// First shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Second shape parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Bayesian update with `successes` and `failures` Bernoulli
    /// observations (conjugacy).
    pub fn updated(&self, successes: u64, failures: u64) -> Self {
        Self::from_shapes(self.alpha + successes as f64, self.beta + failures as f64)
    }

    /// Width of the central credible interval at level `level` (e.g. 0.95) —
    /// a scalar measure of remaining epistemic uncertainty.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1)`.
    pub fn credible_width(&self, level: f64) -> f64 {
        assert!(level > 0.0 && level < 1.0, "credible_width: level in (0,1), got {level}");
        let tail = 0.5 * (1.0 - level);
        self.quantile(1.0 - tail) - self.quantile(tail)
    }
}

impl Continuous for Beta {
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return f64::NEG_INFINITY;
        }
        #[expect(
            clippy::float_cmp,
            reason = "x = 1 is the exact support endpoint where the density diverges"
        )]
        if (x == 0.0 && self.alpha < 1.0) || (x == 1.0 && self.beta < 1.0) {
            return f64::INFINITY;
        }
        #[expect(
            clippy::float_cmp,
            reason = "x = 1 is the exact support endpoint where the density vanishes"
        )]
        if (x == 0.0 && self.alpha > 1.0) || (x == 1.0 && self.beta > 1.0) {
            return f64::NEG_INFINITY;
        }
        (self.alpha - 1.0) * x.ln() + (self.beta - 1.0) * (1.0 - x).ln() - self.inc.ln_beta()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            self.inc.cdf(x)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        self.inc.inverse(p)
    }

    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    fn support(&self) -> Support {
        Support::new(0.0, 1.0)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // X = G1 / (G1 + G2) with Gi ~ Gamma(shape_i, 1).
        #[expect(clippy::expect_used, reason = "alpha was validated positive at construction")]
        let g1 = Gamma::new(self.alpha, 1.0).expect("validated").sample(rng);
        #[expect(clippy::expect_used, reason = "beta was validated positive at construction")]
        let g2 = Gamma::new(self.beta, 1.0).expect("validated").sample(rng);
        g1 / (g1 + g2)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::special::{inv_reg_inc_beta, ln_beta, reg_inc_beta};

    #[test]
    fn rejects_bad_parameters() {
        assert!(Beta::new(0.0, 1.0).is_err());
        assert!(Beta::new(1.0, -1.0).is_err());
    }

    #[test]
    fn uniform_special_case() {
        let b = Beta::new(1.0, 1.0).unwrap();
        for &x in &[0.1, 0.5, 0.9] {
            assert!((b.pdf(x) - 1.0).abs() < 1e-12);
            assert!((b.cdf(x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_round_trip() {
        let b = Beta::new(2.5, 4.0).unwrap();
        testutil::check_quantile_cdf_round_trip(&b, &[0.05, 0.2, 0.5, 0.8], 1e-9);
    }

    #[test]
    fn fill_matches_scalar_and_cached_ln_beta_changes_no_bits() {
        testutil::check_fills_match_scalar(&Beta::new(0.4, 7.0).unwrap(), 35);
        let b = Beta::new(2.5, 4.0).unwrap().updated(3, 1);
        for &x in &[1e-9, 0.2, 0.5, 0.97] {
            assert_eq!(b.cdf(x).to_bits(), reg_inc_beta(5.5, 5.0, x).to_bits());
            let direct = 4.5 * x.ln() + 4.0 * (1.0 - x).ln() - ln_beta(5.5, 5.0);
            assert_eq!(b.ln_pdf(x).to_bits(), direct.to_bits());
        }
        for &p in &[1e-12, 0.3, 0.999] {
            assert_eq!(b.quantile(p).to_bits(), inv_reg_inc_beta(5.5, 5.0, p).to_bits());
        }
    }

    #[test]
    fn conjugate_update_shrinks_credible_width() {
        let prior = Beta::new(1.0, 1.0).unwrap();
        let w0 = prior.credible_width(0.95);
        let post = prior.updated(90, 10);
        let w1 = post.credible_width(0.95);
        assert!(w1 < w0 / 3.0, "epistemic width must shrink: {w0} -> {w1}");
        assert!((post.mean() - 91.0 / 102.0).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let b = Beta::new(3.0, 2.0).unwrap();
        testutil::check_pdf_integrates_to_cdf(&b, 0.05, 0.95, 1e-10);
    }

    #[test]
    fn sampling_moments() {
        let b = Beta::new(2.0, 6.0).unwrap();
        testutil::check_sample_moments(&b, 43, 300_000, 5.0);
    }
}
