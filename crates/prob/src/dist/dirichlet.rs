//! Dirichlet distribution over the probability simplex.

use super::{Categorical, Continuous, Gamma};
use crate::error::{ProbError, Result};
use crate::special::{digamma, ln_gamma};
use crate::rng::RngCore;

/// Dirichlet distribution over probability vectors of dimension `k`.
///
/// The conjugate prior for [`Categorical`] observation processes: it is the
/// natural representation of *epistemic* uncertainty about the entries of a
/// conditional probability table (paper Table I). Observing outcomes
/// sharpens the posterior; the marginal credible widths quantify the
/// remaining lack of knowledge.
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::Dirichlet;
/// let d = Dirichlet::new(vec![6.0, 3.0, 1.0])?;
/// let m = d.mean();
/// assert!((m[0] - 0.6).abs() < 1e-15);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alpha: Vec<f64>,
}

impl Dirichlet {
    /// Creates a Dirichlet distribution from concentration parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] unless all concentrations are
    /// strictly positive and there are at least two of them.
    pub fn new(alpha: Vec<f64>) -> Result<Self> {
        if alpha.len() < 2 {
            return Err(ProbError::InvalidParameter(
                "Dirichlet requires at least 2 components".into(),
            ));
        }
        if alpha.iter().any(|&a| !a.is_finite() || a <= 0.0) {
            return Err(ProbError::InvalidParameter(format!(
                "Dirichlet requires all alpha > 0, got {alpha:?}"
            )));
        }
        Ok(Self { alpha })
    }

    /// Symmetric Dirichlet with `k` components and common concentration `a`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] if `k < 2` or `a <= 0`.
    pub fn symmetric(k: usize, a: f64) -> Result<Self> {
        Self::new(vec![a; k])
    }

    /// Concentration parameters.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Always false for constructed values (kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Total concentration `alpha_0 = sum(alpha)`.
    pub fn total_concentration(&self) -> f64 {
        self.alpha.iter().sum()
    }

    /// Mean probability vector.
    pub fn mean(&self) -> Vec<f64> {
        let a0 = self.total_concentration();
        self.alpha.iter().map(|a| a / a0).collect()
    }

    /// Per-component variances.
    pub fn variance(&self) -> Vec<f64> {
        let a0 = self.total_concentration();
        self.alpha.iter().map(|&a| a * (a0 - a) / (a0 * a0 * (a0 + 1.0))).collect()
    }

    /// Log-density at a point `x` on the simplex.
    ///
    /// Returns negative infinity if `x` is not a valid probability vector of
    /// the right dimension.
    pub fn ln_pdf(&self, x: &[f64]) -> f64 {
        if x.len() != self.alpha.len() {
            return f64::NEG_INFINITY;
        }
        let sum: f64 = x.iter().sum();
        if (sum - 1.0).abs() > 1e-9 || x.iter().any(|&xi| xi < 0.0) {
            return f64::NEG_INFINITY;
        }
        let a0 = self.total_concentration();
        let mut acc = ln_gamma(a0);
        for (&a, &xi) in self.alpha.iter().zip(x) {
            acc -= ln_gamma(a);
            #[expect(
                clippy::float_cmp,
                reason = "a = 1 exactly zeroes the (a - 1) ln x term, so it is skipped instead of evaluating 0 * ln 0"
            )]
            if a != 1.0 {
                if xi == 0.0 {
                    return if a > 1.0 { f64::NEG_INFINITY } else { f64::INFINITY };
                }
                acc += (a - 1.0) * xi.ln();
            }
        }
        acc
    }

    /// Draws a probability vector by normalizing independent gammas.
    pub fn sample(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        #[expect(
            clippy::expect_used,
            reason = "concentrations were validated positive at construction"
        )]
        let gs: Vec<f64> = self
            .alpha
            .iter()
            .map(|&a| Gamma::new(a, 1.0).expect("validated").sample(rng))
            .collect();
        let total: f64 = gs.iter().sum();
        gs.iter().map(|g| g / total).collect()
    }

    /// Draws a [`Categorical`] distribution (a random CPT row).
    ///
    /// # Panics
    ///
    /// Never panics for constructed values; the sampled vector always
    /// normalizes.
    pub fn sample_categorical(&self, rng: &mut dyn RngCore) -> Categorical {
        #[expect(clippy::expect_used, reason = "a normalized gamma draw is a valid simplex point")]
        Categorical::new(self.sample(rng)).expect("sampled simplex point is valid")
    }

    /// Bayesian update with observed category counts (conjugacy).
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::DimensionMismatch`] if `counts.len()` differs
    /// from the number of components.
    pub fn updated(&self, counts: &[u64]) -> Result<Self> {
        if counts.len() != self.alpha.len() {
            return Err(ProbError::DimensionMismatch {
                expected: self.alpha.len(),
                actual: counts.len(),
            });
        }
        Ok(Self {
            alpha: self.alpha.iter().zip(counts).map(|(a, &c)| a + c as f64).collect(),
        })
    }

    /// Expected Shannon entropy of a categorical drawn from this Dirichlet,
    /// `E[H(p)] = ψ(α₀+1) − Σᵢ (αᵢ/α₀) ψ(αᵢ+1)` (in nats). A scalar summary
    /// of combined aleatory+epistemic spread.
    pub fn expected_entropy(&self) -> f64 {
        let a0 = self.total_concentration();
        digamma(a0 + 1.0)
            - self.alpha.iter().map(|&a| (a / a0) * digamma(a + 1.0)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Dirichlet::new(vec![1.0]).is_err());
        assert!(Dirichlet::new(vec![1.0, 0.0]).is_err());
        assert!(Dirichlet::new(vec![1.0, -1.0]).is_err());
    }

    #[test]
    fn mean_and_variance_match_formulae() {
        let d = Dirichlet::new(vec![2.0, 3.0, 5.0]).unwrap();
        let m = d.mean();
        assert!((m[0] - 0.2).abs() < 1e-15);
        assert!((m[2] - 0.5).abs() < 1e-15);
        let v = d.variance();
        assert!((v[0] - 0.2 * 0.8 / 11.0).abs() < 1e-15);
    }

    #[test]
    fn samples_lie_on_simplex() {
        let d = Dirichlet::new(vec![0.5, 1.0, 2.0, 4.0]).unwrap();
        let mut rng = testutil::rng(23);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(x.iter().all(|&xi| xi >= 0.0));
        }
    }

    #[test]
    fn sample_mean_converges_to_analytic_mean() {
        let d = Dirichlet::new(vec![6.0, 3.0, 1.0]).unwrap();
        let mut rng = testutil::rng(29);
        let n = 100_000;
        let mut acc = vec![0.0; 3];
        for _ in 0..n {
            for (a, x) in acc.iter_mut().zip(d.sample(&mut rng)) {
                *a += x;
            }
        }
        for (a, m) in acc.iter().zip(d.mean()) {
            assert!((a / n as f64 - m).abs() < 0.005);
        }
    }

    #[test]
    fn conjugate_update_concentrates() {
        let prior = Dirichlet::symmetric(3, 1.0).unwrap();
        let post = prior.updated(&[60, 30, 10]).unwrap();
        let m = post.mean();
        assert!((m[0] - 61.0 / 103.0).abs() < 1e-12);
        // Epistemic spread shrinks.
        assert!(post.variance()[0] < prior.variance()[0]);
        assert!(prior.updated(&[1, 2]).is_err());
    }

    #[test]
    fn ln_pdf_uniform_case() {
        // Dirichlet(1,1,1) is uniform on the simplex with density Γ(3) = 2.
        let d = Dirichlet::symmetric(3, 1.0).unwrap();
        let x = [0.2, 0.3, 0.5];
        assert!((d.ln_pdf(&x) - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(d.ln_pdf(&[0.5, 0.5]), f64::NEG_INFINITY);
    }

    #[test]
    fn expected_entropy_decreases_with_concentration() {
        let vague = Dirichlet::symmetric(3, 1.0).unwrap();
        let sharp = Dirichlet::new(vec![100.0, 1.0, 1.0]).unwrap();
        assert!(sharp.expected_entropy() < vague.expected_entropy());
    }
}
