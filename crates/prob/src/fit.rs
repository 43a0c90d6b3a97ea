//! Parameter estimation: fitting parametric models to observations.
//!
//! This is the constructive step of the paper's frequentist modeling
//! (Fig. 2 model B / Sec. III-B): turning repeated observations into a
//! probabilistic model, with the epistemic quality of the fit made
//! explicit through log-likelihoods and information criteria.

use crate::dist::{Continuous, Exponential, LogNormal, Normal, Uniform, Weibull};
use crate::error::{ProbError, Result};

/// Maximum-likelihood fit of a normal distribution.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] for fewer than two observations and
/// [`ProbError::InvalidParameter`] for degenerate (constant) samples.
pub fn fit_normal(xs: &[f64]) -> Result<Normal> {
    if xs.len() < 2 {
        return Err(ProbError::EmptyData);
    }
    let mean = crate::stats::mean(xs)?;
    // MLE uses the biased (1/n) variance.
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    if var <= 0.0 {
        return Err(ProbError::InvalidParameter("constant sample".into()));
    }
    Normal::new(mean, var.sqrt())
}

/// Maximum-likelihood fit of an exponential distribution.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] for empty input and
/// [`ProbError::InvalidParameter`] for non-positive observations or a
/// zero mean.
pub fn fit_exponential(xs: &[f64]) -> Result<Exponential> {
    if xs.is_empty() {
        return Err(ProbError::EmptyData);
    }
    if xs.iter().any(|&x| x < 0.0) {
        return Err(ProbError::InvalidParameter("negative observation".into()));
    }
    let mean = crate::stats::mean(xs)?;
    if mean <= 0.0 {
        return Err(ProbError::InvalidParameter("zero mean".into()));
    }
    Exponential::new(1.0 / mean)
}

/// Maximum-likelihood fit of a log-normal distribution (normal MLE on the
/// logarithms).
///
/// # Errors
///
/// Returns [`ProbError::InvalidParameter`] for non-positive observations;
/// otherwise as [`fit_normal`].
pub fn fit_lognormal(xs: &[f64]) -> Result<LogNormal> {
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(ProbError::InvalidParameter(
            "log-normal fit requires strictly positive data".into(),
        ));
    }
    let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let base = fit_normal(&logs)?;
    LogNormal::new(base.mu(), base.sigma())
}

/// Maximum-likelihood fit of the uniform distribution (the sample range).
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] for fewer than two observations and
/// [`ProbError::InvalidParameter`] for constant samples.
pub fn fit_uniform(xs: &[f64]) -> Result<Uniform> {
    if xs.len() < 2 {
        return Err(ProbError::EmptyData);
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Uniform::new(lo, hi)
}

/// Maximum-likelihood fit of a Weibull distribution (Newton iteration on
/// the shape profile likelihood).
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] for fewer than two observations,
/// [`ProbError::InvalidParameter`] for non-positive data, and propagates a
/// convergence failure as an invalid-parameter error.
pub fn fit_weibull(xs: &[f64]) -> Result<Weibull> {
    if xs.len() < 2 {
        return Err(ProbError::EmptyData);
    }
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(ProbError::InvalidParameter(
            "Weibull fit requires strictly positive data".into(),
        ));
    }
    let n = xs.len() as f64;
    let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let mean_log: f64 = logs.iter().sum::<f64>() / n;
    // Profile likelihood equation:
    // f(k) = Σ x^k ln x / Σ x^k − 1/k − mean_log = 0, increasing in k.
    let f = |k: f64| -> f64 {
        let mut s_xk = 0.0;
        let mut s_xk_lx = 0.0;
        for (&x, &lx) in xs.iter().zip(&logs) {
            let xk = x.powf(k);
            s_xk += xk;
            s_xk_lx += xk * lx;
        }
        s_xk_lx / s_xk - 1.0 / k - mean_log
    };
    // Bracket then bisect (robust; the equation is monotone in k).
    let mut lo = 1e-3;
    let mut hi = 1.0;
    while f(hi) < 0.0 {
        hi *= 2.0;
        if hi > 1e4 {
            return Err(ProbError::InvalidParameter(
                "Weibull shape estimation did not bracket".into(),
            ));
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi {
            break;
        }
    }
    let k = 0.5 * (lo + hi);
    let scale = (xs.iter().map(|x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
    Weibull::new(k, scale)
}

/// Total log-likelihood of a sample under a distribution.
pub fn log_likelihood<D: Continuous + ?Sized>(dist: &D, xs: &[f64]) -> f64 {
    xs.iter().map(|&x| dist.ln_pdf(x)).sum()
}

/// Akaike information criterion `2k - 2 ln L` for a fitted model with
/// `n_params` free parameters — the standard epistemic penalty for model
/// complexity when choosing between candidate model families.
pub fn aic<D: Continuous + ?Sized>(dist: &D, xs: &[f64], n_params: usize) -> f64 {
    2.0 * n_params as f64 - 2.0 * log_likelihood(dist, xs)
}

/// Candidate families for automatic model selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FittedFamily {
    /// Normal distribution (2 parameters).
    Normal,
    /// Exponential distribution (1 parameter).
    Exponential,
    /// Log-normal distribution (2 parameters).
    LogNormal,
    /// Weibull distribution (2 parameters).
    Weibull,
    /// Uniform distribution (2 parameters).
    Uniform,
}

/// One candidate of [`select_model`]: the family, its fitted
/// distribution and its AIC score.
pub type ScoredFit = (FittedFamily, Box<dyn Continuous>, f64);

/// Fits all applicable candidate families and returns them with AIC
/// scores, best first. Positive-only families are skipped for data with
/// non-positive values.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] when no family could be fitted.
pub fn select_model(xs: &[f64]) -> Result<Vec<ScoredFit>> {
    let mut out: Vec<ScoredFit> = Vec::new();
    if let Ok(d) = fit_normal(xs) {
        let score = aic(&d, xs, 2);
        out.push((FittedFamily::Normal, Box::new(d), score));
    }
    if let Ok(d) = fit_uniform(xs) {
        let score = aic(&d, xs, 2);
        out.push((FittedFamily::Uniform, Box::new(d), score));
    }
    if xs.iter().all(|&x| x > 0.0) {
        if let Ok(d) = fit_exponential(xs) {
            let score = aic(&d, xs, 1);
            out.push((FittedFamily::Exponential, Box::new(d), score));
        }
        if let Ok(d) = fit_lognormal(xs) {
            let score = aic(&d, xs, 2);
            out.push((FittedFamily::LogNormal, Box::new(d), score));
        }
        if let Ok(d) = fit_weibull(xs) {
            let score = aic(&d, xs, 2);
            out.push((FittedFamily::Weibull, Box::new(d), score));
        }
    }
    if out.is_empty() {
        return Err(ProbError::EmptyData);
    }
    out.sort_by(|a, b| a.2.total_cmp(&b.2));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(314)
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let truth = Normal::new(3.0, 1.5).unwrap();
        let xs = truth.sample_n(&mut rng(), 50_000);
        let fit = fit_normal(&xs).unwrap();
        assert!((fit.mu() - 3.0).abs() < 0.03);
        assert!((fit.sigma() - 1.5).abs() < 0.03);
        assert!(fit_normal(&[1.0]).is_err());
        assert!(fit_normal(&[2.0, 2.0, 2.0]).is_err());
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        let truth = Exponential::new(2.5).unwrap();
        let xs = truth.sample_n(&mut rng(), 50_000);
        let fit = fit_exponential(&xs).unwrap();
        assert!((fit.rate() - 2.5).abs() < 0.05);
        assert!(fit_exponential(&[]).is_err());
        assert!(fit_exponential(&[-1.0]).is_err());
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = LogNormal::new(0.5, 0.8).unwrap();
        let xs = truth.sample_n(&mut rng(), 50_000);
        let fit = fit_lognormal(&xs).unwrap();
        assert!((fit.mu() - 0.5).abs() < 0.02);
        assert!((fit.sigma() - 0.8).abs() < 0.02);
        assert!(fit_lognormal(&[1.0, -2.0]).is_err());
    }

    #[test]
    fn weibull_fit_recovers_parameters() {
        let truth = Weibull::new(2.2, 1.7).unwrap();
        let xs = truth.sample_n(&mut rng(), 50_000);
        let fit = fit_weibull(&xs).unwrap();
        assert!((fit.shape() - 2.2).abs() < 0.05, "shape {}", fit.shape());
        assert!((fit.scale() - 1.7).abs() < 0.03, "scale {}", fit.scale());
        assert!(fit_weibull(&[0.0, 1.0]).is_err());
    }

    #[test]
    fn weibull_fit_shape_one_is_exponential() {
        let truth = Exponential::new(1.0).unwrap();
        let xs = truth.sample_n(&mut rng(), 50_000);
        let fit = fit_weibull(&xs).unwrap();
        assert!((fit.shape() - 1.0).abs() < 0.03);
    }

    #[test]
    fn aic_prefers_the_true_family() {
        // Weibull(3, 2) data: the Weibull fit must beat normal and
        // exponential on AIC.
        let truth = Weibull::new(3.0, 2.0).unwrap();
        let xs = truth.sample_n(&mut rng(), 5_000);
        let ranking = select_model(&xs).unwrap();
        assert_eq!(ranking[0].0, FittedFamily::Weibull, "ranking: {:?}",
            ranking.iter().map(|(f, _, a)| (*f, *a)).collect::<Vec<_>>());
    }

    #[test]
    fn aic_prefers_exponential_for_exponential_data() {
        let truth = Exponential::new(1.3).unwrap();
        let xs = truth.sample_n(&mut rng(), 5_000);
        let ranking = select_model(&xs).unwrap();
        // Exponential or Weibull (which contains it) must win; the 1-param
        // exponential should edge out on the AIC penalty.
        assert!(
            matches!(ranking[0].0, FittedFamily::Exponential | FittedFamily::Weibull),
            "{:?}",
            ranking[0].0
        );
    }

    #[test]
    fn select_model_skips_positive_families_for_signed_data() {
        let truth = Normal::new(0.0, 1.0).unwrap();
        let xs = truth.sample_n(&mut rng(), 2_000);
        let ranking = select_model(&xs).unwrap();
        assert!(ranking.iter().all(|(f, _, _)| matches!(
            f,
            FittedFamily::Normal | FittedFamily::Uniform
        )));
        assert_eq!(ranking[0].0, FittedFamily::Normal);
    }

    #[test]
    fn log_likelihood_is_maximized_at_fit() {
        let truth = Normal::new(1.0, 2.0).unwrap();
        let xs = truth.sample_n(&mut rng(), 10_000);
        let fit = fit_normal(&xs).unwrap();
        let ll_fit = log_likelihood(&fit, &xs);
        let ll_off = log_likelihood(&Normal::new(1.5, 2.0).unwrap(), &xs);
        assert!(ll_fit > ll_off);
    }
}
