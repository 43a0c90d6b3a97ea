//! Probability boxes via Dempster–Shafer structures on the real line.
//!
//! A DS structure is a finite set of interval focal elements with masses; it
//! induces lower/upper CDF envelopes (a p-box). This is the standard way to
//! propagate *mixed* aleatory + epistemic uncertainty: the intervals carry
//! the epistemic part, the masses the aleatory part (Ferson-style
//! probability bounds analysis, as used by the paper's Sec. V uncertainty-
//! aware safety analysis).

use crate::error::{EvidenceError, Result};
use crate::interval::Interval;
use sysunc_prob::dist::Continuous;

/// A Dempster–Shafer structure on ℝ: interval focal elements with masses
/// summing to 1.
///
/// # Examples
///
/// ```
/// use sysunc_evidence::{DsStructure, Interval};
/// // "X is in [0, 1] with 50% chance, in [2, 3] with 50%"
/// let ds = DsStructure::new(vec![
///     (Interval::new(0.0, 1.0)?, 0.5),
///     (Interval::new(2.0, 3.0)?, 0.5),
/// ])?;
/// let mean = ds.mean_bounds();
/// assert_eq!(mean.lo(), 1.0);  // (0 + 2) / 2
/// assert_eq!(mean.hi(), 2.0);  // (1 + 3) / 2
/// # Ok::<(), sysunc_evidence::EvidenceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DsStructure {
    focal: Vec<(Interval, f64)>,
}

impl DsStructure {
    /// Builds a DS structure from interval/mass pairs.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] for empty input, negative
    /// masses, or totals away from 1 (renormalized exactly inside).
    pub fn new(focal: Vec<(Interval, f64)>) -> Result<Self> {
        if focal.is_empty() {
            return Err(EvidenceError::InvalidMass("empty DS structure".into()));
        }
        if focal.iter().any(|(_, m)| *m < 0.0 || !m.is_finite()) {
            return Err(EvidenceError::InvalidMass("negative focal mass".into()));
        }
        let total: f64 = focal.iter().map(|(_, m)| m).sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(EvidenceError::InvalidMass(format!(
                "focal masses sum to {total}, expected 1"
            )));
        }
        let focal = focal
            .into_iter()
            .filter(|(_, m)| *m > 0.0)
            .map(|(i, m)| (i, m / total))
            .collect();
        Ok(Self { focal })
    }

    /// A single interval with mass 1 — pure epistemic ignorance inside
    /// known bounds.
    pub fn from_interval(interval: Interval) -> Self {
        Self { focal: vec![(interval, 1.0)] }
    }

    /// Discretizes a precise distribution into `n` equal-mass interval
    /// focal elements `[q((i)/n), q((i+1)/n)]` (outer discretization).
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] for `n == 0`.
    pub fn from_distribution(dist: &dyn Continuous, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(EvidenceError::InvalidMass("discretization needs n > 0".into()));
        }
        let mass = 1.0 / n as f64;
        let eps = 1e-9;
        let focal = (0..n)
            .map(|i| {
                let lo = dist.quantile(((i as f64) / n as f64).max(eps));
                let hi = dist.quantile((((i + 1) as f64) / n as f64).min(1.0 - eps));
                #[expect(
                    clippy::expect_used,
                    reason = "quantiles are monotone in the level, so lo <= hi"
                )]
                (Interval::new(lo, hi).expect("quantile is monotone"), mass)
            })
            .collect();
        Ok(Self { focal })
    }

    /// Focal elements (interval, mass).
    pub fn focal_elements(&self) -> &[(Interval, f64)] {
        &self.focal
    }

    /// Number of focal elements.
    pub fn len(&self) -> usize {
        self.focal.len()
    }

    /// Whether the structure is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.focal.is_empty()
    }

    /// Lower CDF (belief of `(-inf, x]`): mass of intervals entirely ≤ x.
    /// Range: `[0, 1]`, monotone non-decreasing in `x`.
    pub fn cdf_lower(&self, x: f64) -> f64 {
        // `+ 0.0` normalizes the empty-sum negative zero.
        self.focal.iter().filter(|(i, _)| i.hi() <= x).map(|(_, m)| m).sum::<f64>() + 0.0
    }

    /// Upper CDF (plausibility of `(-inf, x]`): mass of intervals touching
    /// `(-inf, x]`.
    /// Range: `[0, 1]`, monotone non-decreasing in `x`.
    pub fn cdf_upper(&self, x: f64) -> f64 {
        self.focal.iter().filter(|(i, _)| i.lo() <= x).map(|(_, m)| m).sum::<f64>() + 0.0
    }

    /// The `[lower, upper]` CDF bounds at `x` — the p-box envelope.
    /// Range: both bounds lie in `[0, 1]` with lower <= upper.
    pub fn cdf_bounds(&self, x: f64) -> Interval {
        #[expect(clippy::expect_used, reason = "the lower CDF never exceeds the upper CDF")]
        Interval::new(self.cdf_lower(x), self.cdf_upper(x))
            .expect("lower CDF <= upper CDF")
    }

    /// Bounds on the mean: the mass-weighted sums of the focal lower
    /// and upper ends.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidInterval`] when a sum is not a
    /// number: focal ends of both infinite signs, as an overflowing
    /// propagation leaves, sum to NaN.
    pub fn try_mean_bounds(&self) -> Result<Interval> {
        let lo: f64 = self.focal.iter().map(|(i, m)| i.lo() * m).sum();
        let hi: f64 = self.focal.iter().map(|(i, m)| i.hi() * m).sum();
        Interval::new(lo, hi)
    }

    /// Bounds on the mean, for structures whose focal ends are finite.
    ///
    /// # Panics
    ///
    /// Where [`DsStructure::try_mean_bounds`] returns an error.
    pub fn mean_bounds(&self) -> Interval {
        #[expect(
            clippy::expect_used,
            reason = "each focal lo <= hi, so finite mass-weighted sums stay ordered"
        )]
        self.try_mean_bounds().expect("lo <= hi for finite focal ends")
    }

    /// Bounds on `P(X > threshold)` — the exceedance (failure) probability
    /// query under epistemic uncertainty.
    pub fn exceedance_bounds(&self, threshold: f64) -> Interval {
        // P(X > t) in [1 - upper_cdf(t), 1 - lower_cdf(t)].
        self.cdf_bounds(threshold).complement_probability().clamp_unit()
    }

    /// Bounds on the `p`-quantile: the generalized inverses of the upper
    /// CDF (lower bound) and the lower CDF (upper bound).
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] for `p` outside `[0, 1]`.
    pub fn quantile_bounds(&self, p: f64) -> Result<Interval> {
        if !(0.0..=1.0).contains(&p) {
            return Err(EvidenceError::InvalidMass(format!(
                "quantile level must be in [0, 1], got {p}"
            )));
        }
        // cdf_upper steps up at lo endpoints, cdf_lower at hi endpoints;
        // the inverses are cumulative-mass scans over each sorted endpoint
        // list. cdf_upper >= cdf_lower pointwise, so its inverse is <=.
        let scan = |endpoints: &mut Vec<(f64, f64)>| -> f64 {
            endpoints.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut acc = 0.0;
            for &(x, m) in endpoints.iter() {
                acc += m;
                if acc >= p - 1e-12 {
                    return x;
                }
            }
            endpoints.last().map(|&(x, _)| x).unwrap_or(f64::NAN)
        };
        let mut los: Vec<(f64, f64)> = self.focal.iter().map(|(i, m)| (i.lo(), *m)).collect();
        let mut his: Vec<(f64, f64)> = self.focal.iter().map(|(i, m)| (i.hi(), *m)).collect();
        Interval::new(scan(&mut los), scan(&mut his))
    }

    /// Variance of the pignistic (midpoint) approximation — the point
    /// summary used when a downstream consumer needs a single number for
    /// the spread of a DS structure. The epistemic width lives in
    /// [`DsStructure::mean_bounds`], not here.
    pub fn variance_pignistic(&self) -> f64 {
        let mean: f64 = self.focal.iter().map(|(i, m)| i.midpoint() * m).sum();
        self.focal
            .iter()
            .map(|(i, m)| m * (i.midpoint() - mean) * (i.midpoint() - mean))
            .sum()
    }

    /// Binary operation under independence: the Cartesian product of focal
    /// elements with interval arithmetic on each pair.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] only on internal degeneracy
    /// (not expected for valid inputs).
    fn combine<F: Fn(Interval, Interval) -> Interval>(
        &self,
        other: &DsStructure,
        op: F,
    ) -> Result<DsStructure> {
        let mut focal = Vec::with_capacity(self.focal.len() * other.focal.len());
        for (ia, ma) in &self.focal {
            for (ib, mb) in &other.focal {
                focal.push((op(*ia, *ib), ma * mb));
            }
        }
        DsStructure::new(focal)
    }

    /// Sum of two independent uncertain quantities.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] on internal degeneracy (not
    /// expected for valid inputs).
    pub fn add(&self, other: &DsStructure) -> Result<DsStructure> {
        self.combine(other, |a, b| a + b)
    }

    /// Difference of two independent uncertain quantities.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] on internal degeneracy (not
    /// expected for valid inputs).
    pub fn sub(&self, other: &DsStructure) -> Result<DsStructure> {
        self.combine(other, |a, b| a - b)
    }

    /// Product of two independent uncertain quantities.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] on internal degeneracy (not
    /// expected for valid inputs).
    pub fn mul(&self, other: &DsStructure) -> Result<DsStructure> {
        self.combine(other, |a, b| a * b)
    }

    /// Condenses to at most `max_focal` elements by merging adjacent focal
    /// elements (sorted by midpoint), bounding the combinatorial growth of
    /// repeated arithmetic.
    pub fn condensed(&self, max_focal: usize) -> DsStructure {
        if self.focal.len() <= max_focal.max(1) {
            return self.clone();
        }
        let mut sorted = self.focal.clone();
        sorted.sort_by(|a, b| a.0.midpoint().total_cmp(&b.0.midpoint()));
        let per_group = sorted.len().div_ceil(max_focal.max(1));
        let mut focal = Vec::new();
        for chunk in sorted.chunks(per_group) {
            let mass: f64 = chunk.iter().map(|(_, m)| m).sum();
            let mut hull = chunk[0].0;
            for (i, _) in &chunk[1..] {
                hull = hull.hull(i);
            }
            focal.push((hull, mass));
        }
        DsStructure { focal }
    }
}

/// Propagates independent DS-structure inputs through a black-box scalar
/// model `y = f(x)`, returning the output structure and the number of
/// model evaluations spent.
///
/// For each combination of focal elements (one interval per input) the
/// output interval is estimated by evaluating the model at the `2^dim`
/// box corners plus the midpoint — exact for componentwise-monotone
/// models, a sampling approximation otherwise. Inputs are condensed first
/// so the focal product stays within `max_focal` combinations.
///
/// # Errors
///
/// Returns [`EvidenceError::InvalidMass`] for empty input or more than 12
/// dimensions (the corner count is exponential in the dimension).
pub fn propagate_model<F: Fn(&[f64]) -> f64>(
    inputs: &[DsStructure],
    model: F,
    max_focal: usize,
) -> Result<(DsStructure, usize)> {
    if inputs.is_empty() {
        return Err(EvidenceError::InvalidMass("no DS inputs to propagate".into()));
    }
    let dim = inputs.len();
    if dim > 12 {
        return Err(EvidenceError::InvalidMass(format!(
            "corner propagation supports at most 12 dimensions, got {dim}"
        )));
    }
    // Condense each input to the dim-th root of the budget so the
    // Cartesian product holds roughly max_focal combinations.
    let cap = max_focal.max(1) as f64;
    let per_input = cap.powf(1.0 / dim as f64).floor().max(2.0) as usize;
    let condensed: Vec<DsStructure> = inputs.iter().map(|d| d.condensed(per_input)).collect();
    let sizes: Vec<usize> = condensed.iter().map(DsStructure::len).collect();

    let mut evaluations = 0usize;
    let mut focal = Vec::new();
    let mut idx = vec![0usize; dim];
    loop {
        let mut mass = 1.0;
        let cells: Vec<Interval> = idx
            .iter()
            .zip(&condensed)
            .map(|(&i, d)| {
                let (iv, m) = d.focal_elements()[i];
                mass *= m;
                iv
            })
            .collect();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut x = vec![0.0; dim];
        for corner in 0..(1usize << dim) {
            for (d2, cell) in cells.iter().enumerate() {
                x[d2] = if (corner >> d2) & 1 == 1 { cell.hi() } else { cell.lo() };
            }
            let y = model(&x);
            evaluations += 1;
            lo = lo.min(y);
            hi = hi.max(y);
        }
        for (d2, cell) in cells.iter().enumerate() {
            x[d2] = cell.midpoint();
        }
        let y = model(&x);
        evaluations += 1;
        lo = lo.min(y);
        hi = hi.max(y);
        focal.push((Interval::new(lo, hi)?, mass));

        // Odometer increment over the focal product.
        let mut d2 = 0;
        loop {
            idx[d2] += 1;
            if idx[d2] < sizes[d2] {
                break;
            }
            idx[d2] = 0;
            d2 += 1;
            if d2 == dim {
                return Ok((DsStructure::new(focal)?, evaluations));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::dist::Normal;

    fn iv(a: f64, b: f64) -> Interval {
        Interval::new(a, b).unwrap()
    }

    #[test]
    fn validation() {
        assert!(DsStructure::new(vec![]).is_err());
        assert!(DsStructure::new(vec![(iv(0.0, 1.0), 0.5)]).is_err());
        assert!(DsStructure::new(vec![(iv(0.0, 1.0), -1.0), (iv(0.0, 1.0), 2.0)]).is_err());
    }

    #[test]
    fn cdf_envelopes_bracket() {
        let ds = DsStructure::new(vec![(iv(0.0, 2.0), 0.5), (iv(1.0, 3.0), 0.5)]).unwrap();
        for x in [-1.0, 0.5, 1.5, 2.5, 4.0] {
            let b = ds.cdf_bounds(x);
            assert!(b.lo() <= b.hi());
            assert!((0.0..=1.0).contains(&b.lo()));
        }
        assert_eq!(ds.cdf_lower(2.0), 0.5);
        assert_eq!(ds.cdf_upper(0.0), 0.5);
        assert_eq!(ds.cdf_upper(1.0), 1.0);
    }

    #[test]
    fn degenerate_intervals_recover_precise_cdf() {
        // Point focal elements = an ordinary discrete distribution.
        let ds = DsStructure::new(vec![
            (Interval::degenerate(1.0), 0.3),
            (Interval::degenerate(2.0), 0.7),
        ])
        .unwrap();
        let b = ds.cdf_bounds(1.5);
        assert!((b.lo() - 0.3).abs() < 1e-12);
        assert!((b.hi() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn discretized_distribution_brackets_true_cdf() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let ds = DsStructure::from_distribution(&n, 100).unwrap();
        for x in [-2.0, -0.5, 0.0, 1.0, 2.0] {
            let b = ds.cdf_bounds(x);
            let truth = n.cdf(x);
            assert!(
                b.lo() <= truth + 1e-9 && truth <= b.hi() + 1e-9,
                "x={x}: [{}, {}] vs {truth}",
                b.lo(),
                b.hi()
            );
            // Discretization with 100 cells: envelope width <= 1/100 + eps.
            assert!(b.width() <= 0.011);
        }
    }

    #[test]
    fn mean_bounds_and_exceedance() {
        let ds = DsStructure::new(vec![(iv(0.0, 1.0), 0.5), (iv(2.0, 3.0), 0.5)]).unwrap();
        let m = ds.mean_bounds();
        assert_eq!((m.lo(), m.hi()), (1.0, 2.0));
        let e = ds.exceedance_bounds(1.5);
        // P(X > 1.5): the [2,3] interval surely exceeds; [0,1] surely not.
        assert!((e.lo() - 0.5).abs() < 1e-12);
        assert!((e.hi() - 0.5).abs() < 1e-12);
        let e2 = ds.exceedance_bounds(0.5);
        assert!((e2.lo() - 0.5).abs() < 1e-12);
        assert!((e2.hi() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_bounds_of_focal_ends_of_both_infinite_signs_are_an_error() -> Result<()> {
        let inf = f64::INFINITY;
        let ds = DsStructure::new(vec![
            (Interval::new(-inf, 0.0)?, 0.5),
            (Interval::new(inf, inf)?, 0.5),
        ])?;
        assert!(matches!(ds.try_mean_bounds(), Err(EvidenceError::InvalidInterval(_))));
        Ok(())
    }

    #[test]
    fn arithmetic_containment() {
        // [0,1] + [1,2] ⊆ [1,3] with all mass.
        let a = DsStructure::from_interval(iv(0.0, 1.0));
        let b = DsStructure::from_interval(iv(1.0, 2.0));
        let s = a.add(&b).unwrap();
        let m = s.mean_bounds();
        assert_eq!((m.lo(), m.hi()), (1.0, 3.0));
        let p = a.mul(&b).unwrap();
        assert_eq!((p.mean_bounds().lo(), p.mean_bounds().hi()), (0.0, 2.0));
        let d = b.sub(&a).unwrap();
        assert_eq!((d.mean_bounds().lo(), d.mean_bounds().hi()), (0.0, 2.0));
    }

    #[test]
    fn sum_of_discretized_normals_brackets_convolution() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let a = DsStructure::from_distribution(&n, 40).unwrap();
        let s = a.add(&a).unwrap();
        // X + Y ~ N(0, 2) for independent standard normals.
        let conv = Normal::new(0.0, 2.0f64.sqrt()).unwrap();
        for x in [-2.0, 0.0, 1.5] {
            let b = s.cdf_bounds(x);
            let truth = sysunc_prob::dist::Continuous::cdf(&conv, x);
            assert!(
                b.lo() <= truth + 0.02 && truth <= b.hi() + 0.02,
                "x={x}: [{}, {}] vs {truth}",
                b.lo(),
                b.hi()
            );
        }
    }

    #[test]
    fn quantile_bounds_bracket_and_order() {
        let ds = DsStructure::new(vec![(iv(0.0, 1.0), 0.5), (iv(2.0, 3.0), 0.5)]).unwrap();
        let q = ds.quantile_bounds(0.5).unwrap();
        assert!((q.lo() - 0.0).abs() < 1e-12);
        assert!((q.hi() - 1.0).abs() < 1e-12);
        let q9 = ds.quantile_bounds(0.9).unwrap();
        assert!((q9.lo() - 2.0).abs() < 1e-12);
        assert!((q9.hi() - 3.0).abs() < 1e-12);
        assert!(ds.quantile_bounds(1.5).is_err());
        // Discretized normal: quantile bounds must bracket the true quantile.
        let n = Normal::new(0.0, 1.0).unwrap();
        let fine = DsStructure::from_distribution(&n, 200).unwrap();
        for p in [0.05, 0.5, 0.95] {
            let b = fine.quantile_bounds(p).unwrap();
            let truth = n.quantile(p);
            assert!(b.lo() <= truth + 1e-6 && truth <= b.hi() + 1e-6, "p={p}: {b:?} vs {truth}");
        }
    }

    #[test]
    fn variance_pignistic_matches_discrete_case() {
        // Point focal elements: pignistic variance = ordinary variance.
        let ds = DsStructure::new(vec![
            (Interval::degenerate(0.0), 0.5),
            (Interval::degenerate(2.0), 0.5),
        ])
        .unwrap();
        assert!((ds.variance_pignistic() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn propagate_model_encloses_monotone_truth() {
        // f(x, y) = x + 2y over known-interval inputs: exact enclosure.
        let a = DsStructure::from_interval(iv(0.0, 1.0));
        let b = DsStructure::new(vec![(iv(0.0, 1.0), 0.5), (iv(1.0, 2.0), 0.5)]).unwrap();
        let (out, evals) =
            propagate_model(&[a, b.clone()], |x| x[0] + 2.0 * x[1], 256).unwrap();
        let m = out.mean_bounds();
        // E bounds: x in [0,1]; 2y in [2*0.5*(0+1), 2*0.5*(1+2)] = [1, 3].
        assert!((m.lo() - 1.0).abs() < 1e-12, "{m:?}");
        assert!((m.hi() - 4.0).abs() < 1e-12, "{m:?}");
        assert!(evals > 0);
        // Agreement with the dedicated interval arithmetic path.
        let direct = DsStructure::from_interval(iv(0.0, 1.0))
            .add(&b.mul(&DsStructure::from_interval(iv(2.0, 2.0))).unwrap())
            .unwrap();
        assert!((direct.mean_bounds().lo() - m.lo()).abs() < 1e-12);
        assert!((direct.mean_bounds().hi() - m.hi()).abs() < 1e-12);
        assert!(propagate_model(&[], |_| 0.0, 16).is_err());
    }

    #[test]
    fn condensation_preserves_envelope_conservatively() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let a = DsStructure::from_distribution(&n, 50).unwrap();
        let s = a.add(&a).unwrap();
        assert_eq!(s.len(), 2500);
        let c = s.condensed(50);
        assert!(c.len() <= 50);
        // Condensed envelope must enclose the original envelope.
        for x in [-3.0, -1.0, 0.0, 2.0] {
            let orig = s.cdf_bounds(x);
            let cond = c.cdf_bounds(x);
            assert!(cond.lo() <= orig.lo() + 1e-12);
            assert!(cond.hi() >= orig.hi() - 1e-12);
        }
        // Mean bounds can only widen (hulls are conservative) and stay
        // close for adjacent merging.
        assert!(c.mean_bounds().lo() <= s.mean_bounds().lo() + 1e-12);
        assert!(c.mean_bounds().hi() >= s.mean_bounds().hi() - 1e-12);
    }
}
