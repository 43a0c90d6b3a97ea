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
/// quantile in the workspace ([`quantile`], the ECDF inverse and the
/// scalar reference path delegate here). The propagation engines read
/// only a few ranks, so they use [`select_quantiles`] instead, which
/// shares this type's interpolation and agrees with it bit for bit.
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
        check_sample(&xs)?;
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
        let at = Type7::new(self.sorted.len(), p);
        at.interpolate(self.sorted[at.lo], self.sorted[at.hi])
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

/// The sample contract of every quantile routine here: non-empty and
/// NaN-free.
fn check_sample(xs: &[f64]) -> Result<()> {
    if xs.is_empty() {
        return Err(ProbError::EmptyData);
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(ProbError::InvalidParameter("sample contains NaN".into()));
    }
    Ok(())
}

/// Where a Hyndman–Fan type-7 quantile sits in a sample of `n`: the
/// fractional position `h = (n - 1) p` and the ranks either side of it.
#[derive(Debug, Clone, Copy)]
struct Type7 {
    h: f64,
    lo: usize,
    hi: usize,
}

impl Type7 {
    /// Position of level `p` (clamped to `[0, 1]`) among `n >= 1`
    /// order statistics.
    fn new(n: usize, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "quantile level {p} outside [0,1]");
        let h = (n - 1) as f64 * p.clamp(0.0, 1.0);
        Self { h, lo: h.floor() as usize, hi: h.ceil() as usize }
    }

    /// Linear interpolation between the order statistics at ranks `lo`
    /// and `hi` — the one expression both quantile paths evaluate.
    fn interpolate(self, lo: f64, hi: f64) -> f64 {
        lo + (self.h - self.lo as f64) * (hi - lo)
    }
}

/// Hyndman–Fan type-7 quantiles of `xs` at every level of `levels`,
/// found by selection instead of a sort. Returns one value per level, in
/// the order given, bit-identical to [`SortedSample::interpolated`] on
/// the same sample.
///
/// Each distinct lower rank is placed by `select_nth_unstable_by`,
/// middle rank first: the ranks below it are then selected only in the
/// part of `xs` left of it and the ranks above only in the part right of
/// it, so `k` ranks cost O(n log k) instead of the sort's O(n log n).
/// The upper rank of a level is the minimum of the part right of its
/// lower rank, up to and including the next rank already in place.
///
/// Selection orders by [`f64::total_cmp`], which puts `-0.0` before
/// `+0.0` where the stable sort keeps tied zeros in input order, so a
/// selected rank may hold the other zero (no other values that compare
/// equal differ in their bits, NaN being rejected). The interpolation
/// cannot tell: a zero next to a non-zero `x` enters it only through
/// `x - (±0) = x` or `(±0) - x = -x`, and with zeros at both ranks it
/// returns `+0.0` whatever their signs.
///
/// # Errors
///
/// The errors of [`SortedSample::from_vec`]: [`ProbError::EmptyData`]
/// for empty input, [`ProbError::InvalidParameter`] when `xs` contains
/// NaN. Either way `xs` is left untouched.
///
/// # Examples
///
/// ```
/// use sysunc_prob::stats::{select_quantiles, SortedSample};
/// let mut xs = vec![4.0, 1.0, 3.0, 2.0];
/// let sorted = SortedSample::from_slice(&xs)?;
/// let picked = select_quantiles(&mut xs, &[0.5, 0.1])?;
/// assert_eq!(picked, vec![sorted.interpolated(0.5), sorted.interpolated(0.1)]);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
pub fn select_quantiles(xs: &mut [f64], levels: &[f64]) -> Result<Vec<f64>> {
    check_sample(xs)?;
    let n = xs.len();
    let positions: Vec<Type7> = levels.iter().map(|&p| Type7::new(n, p)).collect();
    let mut ranks: Vec<usize> = positions.iter().map(|at| at.lo).collect();
    ranks.sort_unstable();
    ranks.dedup();
    // The order statistics at `ranks[i]` and `ranks[i] + 1`.
    let mut placed = vec![(0.0, 0.0); ranks.len()];
    // A task places `ranks[a..b]`, which all lie in `xs[start..end]`;
    // that part holds exactly the order statistics of ranks
    // `start..end`, and `xs[end]`, when it exists, is already in place.
    let mut tasks = vec![(0, ranks.len(), 0, n)];
    while let Some((a, b, start, end)) = tasks.pop() {
        if a == b {
            continue;
        }
        let m = a + (b - a) / 2;
        let rank = ranks[m];
        xs[start..end].select_nth_unstable_by(rank - start, f64::total_cmp);
        let next = xs[rank + 1..n.min(end + 1)].iter().copied().fold(f64::INFINITY, f64::min);
        placed[m] = (xs[rank], next);
        tasks.push((a, m, start, rank));
        tasks.push((m + 1, b, rank + 1, end));
    }
    Ok(positions
        .iter()
        .map(|at| {
            let (lo, next) = placed[ranks.partition_point(|&r| r < at.lo)];
            at.interpolate(lo, if at.hi > at.lo { next } else { lo })
        })
        .collect())
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
/// Same as [`pearson_correlation`]; additionally
/// [`ProbError::InvalidParameter`] when either sample contains NaN,
/// which has no rank.
pub fn spearman_correlation(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.iter().chain(ys).any(|x| x.is_nan()) {
        return Err(ProbError::InvalidParameter("sample contains NaN".into()));
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson_correlation(&rx, &ry)
}

/// Mid-ranks (ties get the average rank).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
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
    fn selection_matches_the_sort_on_every_small_sample_of_signed_zeros() {
        // Bounded-exhaustive: every sample of up to six values over
        // {-1, -0, +0, 1}, so every arrangement of tied zeros of both
        // signs reaches the selected ranks, at levels that land on ranks
        // and between them.
        let alphabet = [-1.0, -0.0, 0.0, 1.0];
        let levels: Vec<f64> =
            (0..=20).map(|k| f64::from(k) / 20.0).chain([1e-12, 0.37, 1.0 - 1e-12]).collect();
        for n in 1..=6u32 {
            for code in 0..4usize.pow(n) {
                let xs: Vec<f64> =
                    (0..n).map(|i| alphabet[code / 4usize.pow(i) % 4]).collect();
                let sorted = SortedSample::from_slice(&xs).unwrap();
                let picked = select_quantiles(&mut xs.clone(), &levels).unwrap();
                for (&p, q) in levels.iter().zip(&picked) {
                    assert_eq!(q.to_bits(), sorted.interpolated(p).to_bits(), "{xs:?} at {p}");
                }
            }
        }
    }

    #[test]
    fn selection_rejects_what_the_sort_rejects_and_leaves_the_buffer() {
        assert_eq!(
            select_quantiles(&mut [], &[0.5]).unwrap_err(),
            SortedSample::from_slice(&[]).unwrap_err()
        );
        let xs = [3.0, f64::NAN, 1.0, -0.0];
        let mut buf = xs;
        assert_eq!(
            select_quantiles(&mut buf, &[0.5]).unwrap_err(),
            SortedSample::from_slice(&xs).unwrap_err()
        );
        assert_eq!(buf.map(f64::to_bits), xs.map(f64::to_bits));
        // No levels: nothing to answer, but the sample is still checked.
        assert_eq!(select_quantiles(&mut [2.0, 1.0], &[]).unwrap(), Vec::<f64>::new());
        assert!(select_quantiles(&mut [f64::NAN], &[]).is_err());
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
        assert!(spearman_correlation(&[1.0, f64::NAN, 3.0], &[1.0, 2.0, 3.0]).is_err());
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
