//! Triangular distribution.

use super::{Continuous, Support};
use crate::error::{ProbError, Result};
use crate::rng::RngCore;

/// Triangular distribution on `[a, b]` with mode `c`.
///
/// The classic three-point expert-elicitation model: when only a minimum,
/// most-likely and maximum value can be stated about a quantity, the
/// triangular distribution encodes that epistemic judgment.
///
/// # Examples
///
/// ```
/// use sysunc_prob::dist::{Continuous, Triangular};
/// let t = Triangular::new(0.0, 1.0, 4.0)?;
/// assert!((t.mean() - 5.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), sysunc_prob::ProbError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    a: f64,
    c: f64,
    b: f64,
}

impl Triangular {
    /// Creates a triangular distribution with lower bound `a`, mode `c` and
    /// upper bound `b`.
    ///
    /// # Errors
    ///
    /// Returns [`ProbError::InvalidParameter`] unless `a <= c <= b`, `a < b`,
    /// and all are finite.
    pub fn new(a: f64, c: f64, b: f64) -> Result<Self> {
        if !(a.is_finite() && b.is_finite() && c.is_finite() && a <= c && c <= b && a < b) {
            return Err(ProbError::InvalidParameter(format!(
                "Triangular requires a <= c <= b with a < b, got ({a}, {c}, {b})"
            )));
        }
        Ok(Self { a, c, b })
    }

    /// Lower bound.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Mode.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Upper bound.
    pub fn b(&self) -> f64 {
        self.b
    }
}

impl Continuous for Triangular {
    fn pdf(&self, x: f64) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        if x < a || x > b {
            0.0
        } else if x < c {
            2.0 * (x - a) / ((b - a) * (c - a))
        } else if x > c {
            2.0 * (b - x) / ((b - a) * (b - c))
        } else {
            // At the mode both ramps meet at the peak density.
            2.0 / (b - a)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        if x <= a {
            0.0
        } else if x >= b {
            1.0
        } else if x <= c {
            (x - a) * (x - a) / ((b - a) * (c - a))
        } else {
            1.0 - (b - x) * (b - x) / ((b - a) * (b - c))
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "Triangular::quantile: p in [0,1], got {p}");
        let (a, c, b) = (self.a, self.c, self.b);
        let fc = (c - a) / (b - a);
        if p <= fc {
            a + (p * (b - a) * (c - a)).sqrt()
        } else {
            b - ((1.0 - p) * (b - a) * (b - c)).sqrt()
        }
    }

    fn mean(&self) -> f64 {
        (self.a + self.b + self.c) / 3.0
    }

    fn variance(&self) -> f64 {
        let (a, c, b) = (self.a, self.c, self.b);
        (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
    }

    fn support(&self) -> Support {
        Support::new(self.a, self.b)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        use crate::rng::Rng as _;
        self.quantile(rng.random::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Triangular::new(0.0, 2.0, 1.0).is_err());
        assert!(Triangular::new(1.0, 1.0, 1.0).is_err());
        assert!(Triangular::new(2.0, 1.0, 3.0).is_err());
    }

    #[test]
    fn degenerate_mode_at_endpoints_allowed() {
        // Right triangle with mode at the lower bound.
        let t = Triangular::new(0.0, 0.0, 2.0).unwrap();
        assert!((t.pdf(0.0) - 1.0).abs() < 1e-12);
        assert!((t.cdf(1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_round_trip() {
        let t = Triangular::new(-1.0, 0.5, 3.0).unwrap();
        testutil::check_quantile_cdf_round_trip(&t, &[-0.5, 0.0, 0.5, 1.5, 2.8], 1e-10);
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        let t = Triangular::new(0.0, 1.0, 4.0).unwrap();
        testutil::check_pdf_integrates_to_cdf(&t, 0.0, 4.0, 1e-8);
    }

    #[test]
    fn sampling_moments() {
        let t = Triangular::new(2.0, 3.0, 7.0).unwrap();
        testutil::check_sample_moments(&t, 61, 200_000, 5.0);
    }
}
