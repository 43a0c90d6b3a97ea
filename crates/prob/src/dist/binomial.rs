//! Binomial distribution.

use super::Discrete;
use crate::error::{ProbError, Result};
use crate::special::{ln_choose, reg_inc_beta};
use crate::rng::RngCore;

/// Binomial distribution: number of successes in `n` independent Bernoulli
/// trials with success probability `p`.
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Binomial, Discrete};
/// let b = Binomial::new(10, 0.5)?;
/// assert!((b.pmf(5) - 0.24609375).abs() < 1e-12);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution with `n` trials and success
    /// probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] if `p` is outside `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ProbError::InvalidParameter(format!(
                "Binomial requires p in [0,1], got {p}"
            )));
        }
        Ok(Self { n, p })
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Discrete for Binomial {
    fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        #[expect(
            clippy::float_cmp,
            reason = "p = 1 is the exact degenerate parameter; every other p takes the general formula"
        )]
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln()
    }

    fn cdf(&self, k: u64) -> f64 {
        #[expect(
            clippy::float_cmp,
            reason = "p = 1 is the exact degenerate parameter; every other p takes the general formula"
        )]
        if k >= self.n || self.p == 0.0 {
            1.0
        } else if self.p == 1.0 {
            0.0
        } else {
            // P(X <= k) = I_{1-p}(n - k, k + 1)
            reg_inc_beta((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "Binomial::quantile: p in [0,1], got {q}");
        // Sequential search from 0 is fine for the sizes we use; binary
        // search over the CDF for large n.
        if self.n > 256 {
            let (mut lo, mut hi) = (0u64, self.n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.cdf(mid) >= q {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        } else {
            let mut acc = 0.0;
            for k in 0..=self.n {
                acc += self.pmf(k);
                if acc >= q - 1e-15 {
                    return k;
                }
            }
            self.n
        }
    }

    fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        use crate::rng::Rng as _;
        if self.n <= 64 {
            // Direct simulation of the trials.
            (0..self.n).filter(|_| rng.random::<f64>() < self.p).count() as u64
        } else {
            // Inversion by binary search over the CDF.
            self.quantile(rng.random::<f64>())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let b = Binomial::new(20, 0.3).unwrap();
        let total: f64 = (0..=20).map(|k| b.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_matches_pmf_sum() {
        let b = Binomial::new(15, 0.45).unwrap();
        let mut acc = 0.0;
        for k in 0..=15u64 {
            acc += b.pmf(k);
            assert!((b.cdf(k) - acc).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn quantile_is_generalized_inverse() {
        let b = Binomial::new(30, 0.2).unwrap();
        for &q in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let k = b.quantile(q);
            assert!(b.cdf(k) >= q - 1e-12);
            if k > 0 {
                assert!(b.cdf(k - 1) < q + 1e-12);
            }
        }
    }

    #[test]
    fn large_n_binary_search_quantile_consistent() {
        let b = Binomial::new(1000, 0.5).unwrap();
        let k = b.quantile(0.5);
        assert!((499..=501).contains(&k), "median of Bin(1000,0.5) ~ 500, got {k}");
    }

    #[test]
    fn degenerate_p() {
        let b0 = Binomial::new(10, 0.0).unwrap();
        assert_eq!(b0.pmf(0), 1.0);
        let b1 = Binomial::new(10, 1.0).unwrap();
        assert_eq!(b1.pmf(10), 1.0);
    }

    #[test]
    fn sample_mean_matches() {
        let b = Binomial::new(100, 0.35).unwrap();
        let mut rng = testutil::rng(9);
        let n = 50_000;
        let mean: f64 = b.sample_n(&mut rng, n).iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        assert!((mean - 35.0).abs() < 0.2, "mean={mean}");
    }
}
