//! Descriptive statistics and online moment accumulation.

use crate::error::{ProbError, Result};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] for empty input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(ProbError::EmptyData);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (denominator `n - 1`).
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] when fewer than two observations are
/// given.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(ProbError::EmptyData);
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] when fewer than two observations are
/// given.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Standard error of the mean, `s / sqrt(n)`.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] when fewer than two observations are
/// given.
pub fn standard_error(xs: &[f64]) -> Result<f64> {
    Ok(std_dev(xs)? / (xs.len() as f64).sqrt())
}

/// Sample skewness (adjusted Fisher–Pearson).
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] when fewer than three observations are
/// given.
pub fn skewness(xs: &[f64]) -> Result<f64> {
    let n = xs.len();
    if n < 3 {
        return Err(ProbError::EmptyData);
    }
    let m = mean(xs)?;
    let s = std_dev(xs)?;
    let nf = n as f64;
    let m3 = xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>();
    Ok(nf / ((nf - 1.0) * (nf - 2.0)) * m3)
}

/// Excess kurtosis (zero for the normal distribution), unbiased estimator.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] when fewer than four observations are
/// given.
pub fn excess_kurtosis(xs: &[f64]) -> Result<f64> {
    let n = xs.len();
    if n < 4 {
        return Err(ProbError::EmptyData);
    }
    let m = mean(xs)?;
    let s2 = variance(xs)?;
    let nf = n as f64;
    let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>();
    Ok(nf * (nf + 1.0) / ((nf - 1.0) * (nf - 2.0) * (nf - 3.0)) * m4 / (s2 * s2)
        - 3.0 * (nf - 1.0) * (nf - 1.0) / ((nf - 2.0) * (nf - 3.0)))
}

/// A sample sorted once, answering arbitrarily many quantile queries
/// without re-sorting — the single source of truth for every sort-based
/// quantile in the workspace ([`quantile`], the ECDF inverse, and the
/// propagation engines' per-level quantile loops all delegate here).
///
/// # Examples
///
/// ```
/// use sysunc_prob::stats::SortedSample;
/// let s = SortedSample::from_slice(&[4.0, 1.0, 3.0, 2.0])?;
/// assert!((s.interpolated(0.5) - 2.5).abs() < 1e-15);
/// assert!((s.lower(0.5) - 2.0).abs() < 1e-15);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSample {
    sorted: Vec<f64>,
}

impl SortedSample {
    /// Sorts a copy of the sample.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::EmptyData`] for empty input or
    /// [`ProbError::InvalidParameter`] when the sample contains NaN.
    pub fn from_slice(xs: &[f64]) -> Result<Self> {
        Self::from_vec(xs.to_vec())
    }

    /// Sorts the sample in place, taking ownership.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::EmptyData`] for empty input or
    /// [`ProbError::InvalidParameter`] when the sample contains NaN.
    pub fn from_vec(mut xs: Vec<f64>) -> Result<Self> {
        if xs.is_empty() {
            return Err(ProbError::EmptyData);
        }
        if xs.iter().any(|x| x.is_nan()) {
            return Err(ProbError::InvalidParameter("sample contains NaN".into()));
        }
        // NaN was rejected above, so `partial_cmp` is total here.
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Ok(Self { sorted: xs })
    }

    /// Number of observations (always at least one).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for constructed values,
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted observations.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Interpolated quantile between order statistics (Hyndman–Fan
    /// type 7, the R/NumPy default). `p` is clamped to `[0, 1]`.
    pub fn interpolated(&self, p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p), "quantile level {p} outside [0,1]");
        let h = (self.sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        self.sorted[lo] + (h - lo as f64) * (self.sorted[hi] - self.sorted[lo])
    }

    /// Smallest order statistic with empirical CDF at least `p`
    /// (Hyndman–Fan type 1, the inverse-ECDF estimator). `p` is clamped
    /// to `[0, 1]`.
    pub fn lower(&self, p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p), "quantile level {p} outside [0,1]");
        if p <= 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let k = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }

    /// Fraction of observations strictly above `threshold`, via binary
    /// search on the sorted sample.
    /// Range: `[0, 1]` — an empirical exceedance frequency.
    pub fn exceedance(&self, threshold: f64) -> f64 {
        let below_or_equal = self.sorted.partition_point(|&v| v <= threshold);
        (self.sorted.len() - below_or_equal) as f64 / self.sorted.len() as f64
    }
}

/// Empirical quantile with linear interpolation between order statistics
/// (Hyndman–Fan type 7, the R/NumPy default).
///
/// One-shot convenience over [`SortedSample`]; sorts on every call, so
/// batch callers querying several levels should build a [`SortedSample`]
/// once instead.
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] for empty data or
/// [`ProbError::InvalidParameter`] for `p` outside `[0, 1]` or NaN data.
pub fn quantile(xs: &[f64], p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) {
        return Err(ProbError::InvalidParameter(format!("quantile level must be in [0,1], got {p}")));
    }
    Ok(SortedSample::from_slice(xs)?.interpolated(p))
}

/// Median (50% quantile).
///
/// # Errors
///
/// Returns [`ProbError::EmptyData`] for empty input.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Sample covariance of two paired samples (denominator `n - 1`).
///
/// # Errors
///
/// Returns [`ProbError::DimensionMismatch`] for unequal lengths and
/// [`ProbError::EmptyData`] for fewer than two pairs.
pub fn covariance(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(ProbError::DimensionMismatch { expected: xs.len(), actual: ys.len() });
    }
    if xs.len() < 2 {
        return Err(ProbError::EmptyData);
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    Ok(xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Pearson correlation coefficient.
///
/// # Errors
///
/// Propagates the errors of [`covariance`]; additionally errors when either
/// sample is constant.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> Result<f64> {
    let c = covariance(xs, ys)?;
    let sx = std_dev(xs)?;
    let sy = std_dev(ys)?;
    if sx == 0.0 || sy == 0.0 {
        return Err(ProbError::InvalidParameter("correlation of constant sample".into()));
    }
    Ok(c / (sx * sy))
}

/// Spearman rank correlation.
///
/// # Errors
///
/// Same as [`pearson_correlation`].
pub fn spearman_correlation(xs: &[f64], ys: &[f64]) -> Result<f64> {
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson_correlation(&rx, &ry)
}

/// Mid-ranks (ties get the average rank).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    #[expect(clippy::expect_used, reason = "rank inputs come from NaN-free samples")]
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        #[expect(
            clippy::float_cmp,
            reason = "mid-ranks group exactly equal values; a tolerance would merge distinct observations"
        )]
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Numerically stable online accumulator for mean/variance/min/max
/// (Welford's algorithm). Suitable for streaming Monte Carlo estimates.
///
/// # Examples
///
/// ```
/// use sysunc_prob::stats::RunningStats;
/// let mut rs = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     rs.push(x);
/// }
/// assert!((rs.mean() - 2.5).abs() < 1e-15);
/// assert_eq!(rs.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (zero when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased variance; zero when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.n == 0 {
            f64::INFINITY
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observed value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-15);
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn sorted_sample_agrees_with_one_shot_quantile() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let s = SortedSample::from_slice(&xs).unwrap();
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(s.interpolated(p), quantile(&xs, p).unwrap(), "p={p}");
        }
        assert_eq!(s.len(), xs.len());
        assert!(!s.is_empty());
        assert_eq!(s.sorted()[0], 1.0);
        assert_eq!(*s.sorted().last().unwrap(), 9.0);
    }

    #[test]
    fn sorted_sample_lower_is_inverse_ecdf() {
        let s = SortedSample::from_vec(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.lower(0.0), 1.0);
        assert_eq!(s.lower(1.0 / 3.0), 1.0);
        assert_eq!(s.lower(0.5), 2.0);
        assert_eq!(s.lower(1.0), 3.0);
    }

    #[test]
    fn sorted_sample_exceedance_matches_linear_count() {
        let xs = [0.5, 1.5, 2.5, 3.5];
        let s = SortedSample::from_slice(&xs).unwrap();
        for t in [-1.0, 0.5, 1.0, 2.5, 9.0] {
            let linear = xs.iter().filter(|&&y| y > t).count() as f64 / xs.len() as f64;
            assert_eq!(s.exceedance(t), linear, "t={t}");
        }
    }

    #[test]
    fn sorted_sample_rejects_empty_and_nan() {
        assert!(SortedSample::from_slice(&[]).is_err());
        assert!(SortedSample::from_vec(vec![1.0, f64::NAN]).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0).unwrap() - 1.0).abs() < 1e-15);
        assert!((quantile(&xs, 1.0).unwrap() - 4.0).abs() < 1e-15);
        assert!((median(&xs).unwrap() - 2.5).abs() < 1e-15);
        assert!((quantile(&xs, 1.0 / 3.0).unwrap() - 2.0).abs() < 1e-12);
        assert!(quantile(&xs, 1.5).is_err());
    }

    #[test]
    fn correlation_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson_correlation(&xs, &zs).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson_correlation(&xs, &[1.0, 1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but nonlinear relation: Spearman = 1, Pearson < 1.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|&x: &f64| x.exp()).collect();
        assert!((spearman_correlation(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson_correlation(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn skewness_and_kurtosis_of_symmetric_data() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&xs).unwrap().abs() < 1e-12);
        assert!(excess_kurtosis(&xs).unwrap() < 0.0); // platykurtic
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs).unwrap()).abs() < 1e-12);
        assert_eq!(rs.min(), 1.0);
        assert_eq!(rs.max(), 9.0);
    }

    #[test]
    fn running_stats_merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.count(), 100);
    }
}
