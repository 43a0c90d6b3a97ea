//! Uncertainty budgets: quantified per-kind uncertainty levels assembled
//! into a release argument (paper Sec. IV: forecasting is "relevant to
//! make a decision about the release of a product").

use crate::error::{Result, SysuncError};
use crate::taxonomy::UncertaintyKind;
use sysunc_prob::json::{field, obj, FromJson, Json, JsonError, ToJson};
use std::fmt;

/// A quantified uncertainty budget for one system or component.
///
/// Each entry is a scalar in natural units of its kind:
/// - **aleatory**: the irreducible output variance share (e.g. from a
///   converged PCE or Monte Carlo estimate),
/// - **epistemic**: a credible-interval or Bel/Pl width on the key risk
///   metric,
/// - **ontological**: the estimated missing mass (Good–Turing residual
///   novelty rate).
///
/// # Examples
///
/// ```
/// use sysunc::budget::UncertaintyBudget;
/// use sysunc::taxonomy::UncertaintyKind;
///
/// let budget = UncertaintyBudget::new(0.04, 0.02, 0.001)?;
/// assert_eq!(budget.dominant(), UncertaintyKind::Aleatory);
/// # Ok::<(), sysunc::SysuncError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertaintyBudget {
    aleatory: f64,
    epistemic: f64,
    ontological: f64,
}

impl UncertaintyBudget {
    /// Creates a budget from the three non-negative levels.
    ///
    /// # Errors
    ///
    /// Returns [`SysuncError::InvalidInput`] for negative or non-finite
    /// levels.
    pub fn new(aleatory: f64, epistemic: f64, ontological: f64) -> Result<Self> {
        for (name, v) in
            [("aleatory", aleatory), ("epistemic", epistemic), ("ontological", ontological)]
        {
            if v < 0.0 || !v.is_finite() {
                return Err(SysuncError::InvalidInput(format!(
                    "{name} level must be finite and >= 0, got {v}"
                )));
            }
        }
        Ok(Self { aleatory, epistemic, ontological })
    }

    /// The level of one kind.
    pub fn level(&self, kind: UncertaintyKind) -> f64 {
        match kind {
            UncertaintyKind::Aleatory => self.aleatory,
            UncertaintyKind::Epistemic => self.epistemic,
            UncertaintyKind::Ontological => self.ontological,
        }
    }

    /// The kind with the largest level (ties broken in taxonomy order).
    pub fn dominant(&self) -> UncertaintyKind {
        #[expect(clippy::expect_used, reason = "levels are finite and ALL has three kinds")]
        UncertaintyKind::ALL
            .into_iter()
            .max_by(|a, b| {
                self.level(*a)
                    .partial_cmp(&self.level(*b))
                    .expect("levels are finite")
            })
            .expect("three kinds")
    }

    /// Checks the budget against per-kind acceptance thresholds; returns
    /// the kinds that violate them.
    pub fn violations(&self, thresholds: &UncertaintyBudget) -> Vec<UncertaintyKind> {
        UncertaintyKind::ALL
            .into_iter()
            .filter(|&k| self.level(k) > thresholds.level(k))
            .collect()
    }

    /// The paper's release gate: acceptable only when *every* kind is
    /// within its threshold — "uncertainties are properly managed and do
    /// not pose an unacceptable level of risk" (Sec. VI).
    pub fn acceptable(&self, thresholds: &UncertaintyBudget) -> bool {
        self.violations(thresholds).is_empty()
    }

    /// Combines component budgets into a system budget by worst-case
    /// (maximum) per kind — conservative roll-up.
    pub fn worst_case<'a, I: IntoIterator<Item = &'a UncertaintyBudget>>(budgets: I) -> Self {
        let mut out = Self { aleatory: 0.0, epistemic: 0.0, ontological: 0.0 };
        for b in budgets {
            out.aleatory = out.aleatory.max(b.aleatory);
            out.epistemic = out.epistemic.max(b.epistemic);
            out.ontological = out.ontological.max(b.ontological);
        }
        out
    }
}

impl fmt::Display for UncertaintyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aleatory={:.4} epistemic={:.4} ontological={:.4}",
            self.aleatory, self.epistemic, self.ontological
        )
    }
}

impl ToJson for UncertaintyBudget {
    fn to_json(&self) -> Json {
        obj([
            ("aleatory", Json::Num(self.aleatory)),
            ("epistemic", Json::Num(self.epistemic)),
            ("ontological", Json::Num(self.ontological)),
        ])
    }
}

impl FromJson for UncertaintyBudget {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        UncertaintyBudget::new(
            field(v, "aleatory")?,
            field(v, "epistemic")?,
            field(v, "ontological")?,
        )
        .map_err(|e| JsonError::decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(UncertaintyBudget::new(-0.1, 0.0, 0.0).is_err());
        assert!(UncertaintyBudget::new(0.0, f64::NAN, 0.0).is_err());
        assert!(UncertaintyBudget::new(0.0, 0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn dominant_and_levels() {
        let b = UncertaintyBudget::new(0.1, 0.5, 0.2).unwrap();
        assert_eq!(b.dominant(), UncertaintyKind::Epistemic);
        assert_eq!(b.level(UncertaintyKind::Ontological), 0.2);
    }

    #[test]
    fn release_gate() {
        let measured = UncertaintyBudget::new(0.05, 0.02, 0.002).unwrap();
        let limits = UncertaintyBudget::new(0.1, 0.05, 0.001).unwrap();
        assert!(!measured.acceptable(&limits));
        assert_eq!(measured.violations(&limits), vec![UncertaintyKind::Ontological]);
        let relaxed = UncertaintyBudget::new(0.1, 0.05, 0.01).unwrap();
        assert!(measured.acceptable(&relaxed));
    }

    #[test]
    fn worst_case_roll_up() {
        let a = UncertaintyBudget::new(0.1, 0.01, 0.0).unwrap();
        let b = UncertaintyBudget::new(0.05, 0.2, 0.003).unwrap();
        let sys = UncertaintyBudget::worst_case([&a, &b]);
        assert_eq!(sys.level(UncertaintyKind::Aleatory), 0.1);
        assert_eq!(sys.level(UncertaintyKind::Epistemic), 0.2);
        assert_eq!(sys.level(UncertaintyKind::Ontological), 0.003);
    }

    #[test]
    fn display_format() {
        let b = UncertaintyBudget::new(0.1, 0.2, 0.3).unwrap();
        let s = b.to_string();
        assert!(s.contains("aleatory=0.1"));
        assert!(s.contains("ontological=0.3"));
    }
}
