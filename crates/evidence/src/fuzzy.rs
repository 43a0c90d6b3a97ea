//! Fuzzy numbers with α-cut arithmetic — the representation behind fuzzy
//! fault tree analysis (Tanaka et al., the paper's reference \[34\]).
//!
//! A fuzzy number is a possibility distribution; its α-cut at level
//! `α ∈ (0, 1]` is the interval of values with membership at least `α`.
//! Arithmetic is performed cut-wise with interval arithmetic, which is
//! exact for continuous monotone operations.

use crate::error::{EvidenceError, Result};
use crate::interval::Interval;

/// A fuzzy number represented by its α-cuts on a fixed ladder of levels.
///
/// Invariant: cuts are nested (`cut(α₁) ⊇ cut(α₂)` for `α₁ < α₂`).
///
/// # Examples
///
/// ```
/// use sysunc_evidence::FuzzyNumber;
/// let a = FuzzyNumber::triangular(1.0, 2.0, 3.0)?;
/// let core = a.alpha_cut(1.0);
/// assert_eq!(core.lo(), 2.0);
/// let support = a.alpha_cut(0.0);
/// assert_eq!((support.lo(), support.hi()), (1.0, 3.0));
/// # Ok::<(), sysunc_evidence::EvidenceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzyNumber {
    /// α levels, ascending, always starting at 0 and ending at 1.
    levels: Vec<f64>,
    /// Cut intervals aligned with `levels` (nested inward).
    cuts: Vec<Interval>,
}

/// Number of α levels used for discretized arithmetic.
const DEFAULT_LEVELS: usize = 21;

impl FuzzyNumber {
    /// Triangular fuzzy number `(a, m, b)`: support `[a, b]`, core `{m}`.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidInterval`] unless `a <= m <= b`.
    pub fn triangular(a: f64, m: f64, b: f64) -> Result<Self> {
        if !(a <= m && m <= b) || a.is_nan() || b.is_nan() {
            return Err(EvidenceError::InvalidInterval(format!("triangular ({a}, {m}, {b})")));
        }
        Self::from_cut_fn(|alpha| {
            let lo = a + alpha * (m - a);
            let hi = b - alpha * (b - m);
            // Guard against last-ulp inversion at alpha = 1.
            #[expect(clippy::expect_used, reason = "min/max ordering makes the endpoints ordered")]
            Interval::new(lo.min(hi), hi.max(lo)).expect("ordered endpoints")
        })
    }

    /// Trapezoidal fuzzy number `(a, m1, m2, b)`: support `[a, b]`, core
    /// `[m1, m2]`.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidInterval`] unless
    /// `a <= m1 <= m2 <= b`.
    pub fn trapezoidal(a: f64, m1: f64, m2: f64, b: f64) -> Result<Self> {
        if !(a <= m1 && m1 <= m2 && m2 <= b) || a.is_nan() || b.is_nan() {
            return Err(EvidenceError::InvalidInterval(format!(
                "trapezoidal ({a}, {m1}, {m2}, {b})"
            )));
        }
        Self::from_cut_fn(|alpha| {
            let lo = a + alpha * (m1 - a);
            let hi = b - alpha * (b - m2);
            #[expect(clippy::expect_used, reason = "min/max ordering makes the endpoints ordered")]
            Interval::new(lo.min(hi), hi.max(lo)).expect("ordered endpoints")
        })
    }

    /// A crisp number as a degenerate fuzzy number.
    pub fn crisp(x: f64) -> Self {
        #[expect(clippy::expect_used, reason = "degenerate cuts are nested and valid")]
        Self::from_cut_fn(|_| Interval::degenerate(x)).expect("degenerate cuts are valid")
    }

    /// Builds from an α-cut function evaluated on the default level ladder.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidInterval`] if the produced cuts are
    /// not nested.
    pub fn from_cut_fn<F: Fn(f64) -> Interval>(cut: F) -> Result<Self> {
        let levels: Vec<f64> =
            (0..DEFAULT_LEVELS).map(|i| i as f64 / (DEFAULT_LEVELS - 1) as f64).collect();
        let mut cuts: Vec<Interval> = levels.iter().map(|&a| cut(a)).collect();
        for i in 1..cuts.len() {
            if !cuts[i - 1].encloses(&cuts[i]) {
                // Repair last-ulp violations; reject real ones.
                let scale = 1.0 + cuts[i - 1].lo().abs() + cuts[i - 1].hi().abs();
                let lo_gap = cuts[i - 1].lo() - cuts[i].lo();
                let hi_gap = cuts[i].hi() - cuts[i - 1].hi();
                if lo_gap > 1e-12 * scale || hi_gap > 1e-12 * scale {
                    return Err(EvidenceError::InvalidInterval(
                        "alpha cuts are not nested".into(),
                    ));
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the nesting check above bounds the gap, so the cuts overlap"
                )]
                let nested =
                    cuts[i].intersect(&cuts[i - 1]).expect("cuts overlap within tolerance");
                cuts[i] = nested;
            }
        }
        Ok(Self { levels, cuts })
    }

    /// The α-cut at the given level (nearest level at or below `alpha`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn alpha_cut(&self, alpha: f64) -> Interval {
        assert!((0.0..=1.0).contains(&alpha), "alpha_cut: alpha in [0,1], got {alpha}");
        let idx = self
            .levels
            .partition_point(|&l| l <= alpha + 1e-12)
            .saturating_sub(1);
        self.cuts[idx]
    }

    /// The support (α-cut at 0).
    pub fn support(&self) -> Interval {
        self.cuts[0]
    }

    /// The core (α-cut at 1).
    pub fn core(&self) -> Interval {
        #[expect(clippy::expect_used, reason = "construction rejects an empty alpha-cut ladder")]
        *self.cuts.last().expect("non-empty ladder")
    }

    /// Membership degree of `x` (piecewise from the cut ladder).
    pub fn membership(&self, x: f64) -> f64 {
        let mut mu = 0.0;
        for (&l, cut) in self.levels.iter().zip(&self.cuts) {
            if cut.contains(x) {
                mu = l;
            }
        }
        mu
    }

    /// Cut-wise binary operation with interval arithmetic.
    fn zip_with<F: Fn(Interval, Interval) -> Interval>(&self, other: &Self, op: F) -> Self {
        let cuts: Vec<Interval> =
            self.cuts.iter().zip(&other.cuts).map(|(&a, &b)| op(a, b)).collect();
        Self { levels: self.levels.clone(), cuts }
    }

    /// Fuzzy addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a + b)
    }

    /// Fuzzy subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a - b)
    }

    /// Fuzzy multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a * b)
    }

    /// `1 - self`, for fuzzy probabilities.
    /// Range: every alpha-cut of the result lies in `[0, 1]`.
    pub fn complement_probability(&self) -> Self {
        Self {
            levels: self.levels.clone(),
            cuts: self.cuts.iter().map(|c| c.complement_probability()).collect(),
        }
    }

    /// Centroid defuzzification (center of gravity of the membership
    /// function, computed from the cut ladder).
    pub fn defuzzify_centroid(&self) -> f64 {
        // ∫ x μ(x) dx / ∫ μ(x) dx by the slab (Cavalieri) decomposition:
        // each α-slab contributes width(cut) · midpoint(cut); trapezoid
        // rule across consecutive levels keeps the error second order.
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 1..self.levels.len() {
            let dl = self.levels[i] - self.levels[i - 1];
            let (a, b) = (self.cuts[i - 1], self.cuts[i]);
            num += dl * 0.5 * (a.width() * a.midpoint() + b.width() * b.midpoint());
            den += dl * 0.5 * (a.width() + b.width());
        }
        if den <= 1e-299 {
            // Crisp number.
            self.core().midpoint()
        } else {
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_cut_structure() {
        let t = FuzzyNumber::triangular(0.0, 1.0, 4.0).unwrap();
        let half = t.alpha_cut(0.5);
        assert!((half.lo() - 0.5).abs() < 1e-12);
        assert!((half.hi() - 2.5).abs() < 1e-12);
        assert_eq!(t.core().midpoint(), 1.0);
        assert!(FuzzyNumber::triangular(2.0, 1.0, 3.0).is_err());
    }

    #[test]
    fn trapezoidal_core_is_interval() {
        let t = FuzzyNumber::trapezoidal(0.0, 1.0, 2.0, 3.0).unwrap();
        let core = t.core();
        assert_eq!((core.lo(), core.hi()), (1.0, 2.0));
        assert!(FuzzyNumber::trapezoidal(0.0, 2.0, 1.0, 3.0).is_err());
    }

    #[test]
    fn membership_function_shape() {
        let t = FuzzyNumber::triangular(0.0, 2.0, 4.0).unwrap();
        assert_eq!(t.membership(-1.0), 0.0);
        assert!((t.membership(2.0) - 1.0).abs() < 1e-12);
        let half = t.membership(1.0);
        assert!((half - 0.5).abs() < 0.06, "≈0.5 on the 21-level ladder, got {half}");
        assert!(t.membership(3.0) > t.membership(3.9));
    }

    #[test]
    fn addition_of_triangulars_is_triangular() {
        // (a1,m1,b1) + (a2,m2,b2) = (a1+a2, m1+m2, b1+b2).
        let x = FuzzyNumber::triangular(1.0, 2.0, 3.0).unwrap();
        let y = FuzzyNumber::triangular(0.5, 1.0, 2.0).unwrap();
        let s = x.add(&y);
        assert_eq!((s.support().lo(), s.support().hi()), (1.5, 5.0));
        assert_eq!(s.core().midpoint(), 3.0);
        let mid = s.alpha_cut(0.5);
        assert!((mid.lo() - 2.25).abs() < 1e-12);
        assert!((mid.hi() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn multiplication_preserves_nesting() {
        let x = FuzzyNumber::triangular(-1.0, 0.5, 2.0).unwrap();
        let y = FuzzyNumber::triangular(0.5, 1.0, 1.5).unwrap();
        let p = x.mul(&y);
        let mut prev = p.alpha_cut(0.0);
        for i in 1..=10 {
            let cut = p.alpha_cut(i as f64 / 10.0);
            assert!(prev.encloses(&cut), "cuts must nest inward");
            prev = cut;
        }
    }

    #[test]
    fn complement_probability_flips() {
        let p = FuzzyNumber::triangular(0.1, 0.2, 0.4).unwrap();
        let q = p.complement_probability();
        assert!((q.core().midpoint() - 0.8).abs() < 1e-12);
        assert!((q.support().lo() - 0.6).abs() < 1e-12);
        assert!((q.support().hi() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn defuzzification() {
        // Symmetric triangle: centroid = peak.
        let sym = FuzzyNumber::triangular(1.0, 2.0, 3.0).unwrap();
        assert!((sym.defuzzify_centroid() - 2.0).abs() < 1e-9);
        // Skewed triangle (0, 0, 3): centroid of μ(x) = 1 - x/3 is at 1.
        let skew = FuzzyNumber::triangular(0.0, 0.0, 3.0).unwrap();
        assert!((skew.defuzzify_centroid() - 1.0).abs() < 0.02);
        // Crisp numbers defuzzify to themselves.
        assert_eq!(FuzzyNumber::crisp(5.0).defuzzify_centroid(), 5.0);
    }
}
