//! The modeling relation (paper Sec. II-A, after Rosen): formal models of
//! physical systems, their adequacy, and the conditional-entropy surprise
//! factor that separates epistemic from ontological inadequacy.

use crate::error::{SysuncError, Result};
use crate::taxonomy::UncertaintyKind;
use sysunc_prob::info::JointTable;

/// Whether a model infers singular outcomes or probabilistic statements
/// (paper Sec. II-A: "it is the choice of the modeler").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// "From the former a singular outcome can be inferred for a given
    /// input" — e.g. Newton's equations (Fig. 2 model A).
    Deterministic,
    /// "For the latter only statements about probabilistic outcomes can be
    /// inferred" — e.g. the frequentist occupancy model (Fig. 2 model B).
    Probabilistic,
}

/// A quantitative adequacy report of a model against observations of the
/// system it encodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdequacyReport {
    /// Conditional entropy `H(system | model)` in nats — the paper's
    /// formal "surprise factor" (Sec. III-C).
    pub surprise_factor: f64,
    /// Mutual information `I(system; model)` in nats — how much the model
    /// actually captures.
    pub captured_information: f64,
    /// Fraction of observed probability mass on system states the model
    /// declared impossible — the ontological share.
    pub impossible_mass: f64,
}

impl AdequacyReport {
    /// Classifies the *dominant* inadequacy per the paper's rule of thumb:
    /// impossible observations → ontological (model correctness); residual
    /// conditional entropy → epistemic (model accuracy); otherwise the
    /// remaining spread is aleatory.
    pub fn dominant_kind(&self, epistemic_threshold_nats: f64) -> UncertaintyKind {
        if self.impossible_mass > 0.0 {
            UncertaintyKind::Ontological
        } else if self.surprise_factor > epistemic_threshold_nats {
            UncertaintyKind::Epistemic
        } else {
            UncertaintyKind::Aleatory
        }
    }
}

/// Assesses a model against paired discrete observations.
///
/// `system_states` and `model_predictions` are paired samples (same
/// length): the actual system state index and the model's predicted state
/// index for each observation, over `n_states` possible states.
///
/// # Errors
///
/// Returns [`SysuncError::InvalidInput`] for empty or mismatched inputs or
/// out-of-range state indices.
pub fn assess_adequacy(
    system_states: &[usize],
    model_predictions: &[usize],
    n_states: usize,
) -> Result<AdequacyReport> {
    if system_states.is_empty() || system_states.len() != model_predictions.len() {
        return Err(SysuncError::InvalidInput(
            "need non-empty, equal-length state/prediction sequences".into(),
        ));
    }
    if n_states == 0 {
        return Err(SysuncError::InvalidInput("n_states must be > 0".into()));
    }
    let mut joint = vec![0.0; n_states * n_states];
    let n = system_states.len() as f64;
    for (&s, &m) in system_states.iter().zip(model_predictions) {
        if s >= n_states || m >= n_states {
            return Err(SysuncError::InvalidInput(format!(
                "state index out of range: ({s}, {m}) with n_states = {n_states}"
            )));
        }
        joint[s * n_states + m] += 1.0 / n;
    }
    let table = JointTable::new(n_states, n_states, joint)
        .map_err(|e| SysuncError::InvalidInput(e.to_string()))?;
    // Impossible mass: system states observed where the model never
    // predicts that state at all (zero column AND the prediction marginal
    // assigns zero): here we use the simpler operational reading — system
    // states the model assigned zero predicted probability overall.
    let model_marginal = table.marginal_y();
    let impossible_mass: f64 = table
        .marginal_x()
        .iter()
        .enumerate()
        .filter(|&(i, _)| model_marginal[i] == 0.0)
        .map(|(_, &p)| p)
        .sum();
    Ok(AdequacyReport {
        surprise_factor: table.conditional_entropy_x_given_y(),
        captured_information: table.mutual_information(),
        impossible_mass,
    })
}

/// The modeling relation of Fig. 2: a named pair of system and model with
/// commentary-producing accessors. Holds the adequacy machinery together
/// for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelingRelation {
    /// Name of the physical system being modeled.
    pub system_name: String,
    /// Name of the formal model.
    pub model_name: String,
    /// Deterministic or probabilistic representation.
    pub kind: ModelKind,
}

impl ModelingRelation {
    /// Creates a modeling relation descriptor.
    pub fn new<S: Into<String>, M: Into<String>>(system: S, model: M, kind: ModelKind) -> Self {
        Self { system_name: system.into(), model_name: model.into(), kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_model_has_zero_surprise() {
        let states = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let report = assess_adequacy(&states, &states, 3).unwrap();
        assert!(report.surprise_factor < 1e-12);
        assert_eq!(report.impossible_mass, 0.0);
        assert!(report.captured_information > 0.9);
        assert_eq!(report.dominant_kind(0.1), UncertaintyKind::Aleatory);
    }

    #[test]
    fn noisy_model_is_epistemic() {
        // Predictions correlate with the system but imperfectly.
        let system: Vec<usize> = (0..1000).map(|i| i % 2).collect();
        let predictions: Vec<usize> =
            system.iter().enumerate().map(|(i, &s)| if i % 5 == 0 { 1 - s } else { s }).collect();
        let report = assess_adequacy(&system, &predictions, 2).unwrap();
        assert!(report.surprise_factor > 0.1);
        assert_eq!(report.impossible_mass, 0.0);
        assert_eq!(report.dominant_kind(0.1), UncertaintyKind::Epistemic);
    }

    #[test]
    fn impossible_states_are_ontological() {
        // The system visits state 2, which the model never predicts.
        let system = vec![0, 1, 2, 0, 1, 2, 2, 0];
        let predictions = vec![0, 1, 0, 0, 1, 1, 0, 0];
        let report = assess_adequacy(&system, &predictions, 3).unwrap();
        assert!((report.impossible_mass - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(report.dominant_kind(0.1), UncertaintyKind::Ontological);
    }

    #[test]
    fn validation() {
        assert!(assess_adequacy(&[], &[], 2).is_err());
        assert!(assess_adequacy(&[0], &[0, 1], 2).is_err());
        assert!(assess_adequacy(&[0, 5], &[0, 1], 2).is_err());
        assert!(assess_adequacy(&[0], &[0], 0).is_err());
    }

    #[test]
    fn relation_descriptor() {
        let rel = ModelingRelation::new("two planets", "Newton", ModelKind::Deterministic);
        assert_eq!(rel.kind, ModelKind::Deterministic);
        assert_eq!(rel.system_name, "two planets");
    }
}
