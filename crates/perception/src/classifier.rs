//! Stochastic classifier simulator — the substituted perception chain.
//!
//! The paper's perception chain is "a camera with a machine learning
//! algorithm that classifies objects"; only its probabilistic input-output
//! behaviour matters for the analysis, so we simulate exactly that: a
//! confusion-matrix channel with an optional confidence-score model and a
//! rejection option ("components that can detect uncertainty", Sec. IV).

use crate::error::{PerceptionError, Result};
use crate::world::Truth;
use sysunc_prob::rng::RngCore;
use sysunc_prob::dist::{Beta, Categorical, Continuous as _};

/// A classifier output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Output {
    /// Index of the emitted label (into [`ClassifierModel::labels`]).
    pub label: usize,
    /// Confidence score in `[0, 1]`.
    pub confidence: f64,
}

/// A simulated classifier: per-true-class output distributions plus a
/// confidence model.
///
/// Output labels are the known classes followed by a final `none` label
/// (no detection). Novel objects use a dedicated row — the classifier has
/// never seen them, so this row is where the ontological gap manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierModel {
    labels: Vec<String>,
    rows: Vec<Categorical>,
    novel_row: Categorical,
    correct_score: Beta,
    wrong_score: Beta,
}

impl ClassifierModel {
    /// Creates a classifier.
    ///
    /// `confusion[i][j] = P(label j | true class i)` over
    /// `known_classes.len() + 1` labels (the last is `none`); `novel_row`
    /// gives the label distribution when the object is novel.
    ///
    /// The confidence model: correct outputs draw scores from
    /// `Beta(8, 2)` (high), incorrect ones from `Beta(2, 4)` (low) — the
    /// separation a well-calibrated uncertainty-aware classifier exhibits.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::InvalidClassifier`] for shape mismatches
    /// or invalid rows.
    pub fn new(
        known_classes: Vec<String>,
        confusion: Vec<Vec<f64>>,
        novel_row: Vec<f64>,
    ) -> Result<Self> {
        if known_classes.is_empty() || confusion.len() != known_classes.len() {
            return Err(PerceptionError::InvalidClassifier(
                "confusion matrix must have one row per known class".into(),
            ));
        }
        let n_labels = known_classes.len() + 1;
        let mut labels = known_classes;
        labels.push("none".into());
        let rows: Vec<Categorical> = confusion
            .into_iter()
            .map(|row| {
                if row.len() != n_labels {
                    return Err(PerceptionError::InvalidClassifier(format!(
                        "confusion row must have {n_labels} entries"
                    )));
                }
                Categorical::new(row).map_err(|e| PerceptionError::InvalidClassifier(e.to_string()))
            })
            .collect::<Result<_>>()?;
        if novel_row.len() != n_labels {
            return Err(PerceptionError::InvalidClassifier(format!(
                "novel row must have {n_labels} entries"
            )));
        }
        let novel_row = Categorical::new(novel_row)
            .map_err(|e| PerceptionError::InvalidClassifier(e.to_string()))?;
        Ok(Self {
            labels,
            rows,
            novel_row,
            correct_score: Beta::new(8.0, 2.0)
                .map_err(|e| PerceptionError::InvalidClassifier(e.to_string()))?,
            wrong_score: Beta::new(2.0, 4.0)
                .map_err(|e| PerceptionError::InvalidClassifier(e.to_string()))?,
        })
    }

    /// A paper-faithful single-camera classifier for the car/pedestrian
    /// world: Table I's probabilities with the epistemic
    /// `car/pedestrian` indecision mapped onto low-confidence outputs.
    ///
    /// Table I's `car/pedestrian` column (0.05) is split evenly between
    /// the two labels (the simulator must emit a concrete label), and the
    /// unknown row's unmodeled 0.1 goes to `none`.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors [`ClassifierModel::new`].
    pub fn paper_camera() -> Result<Self> {
        Self::new(
            vec!["car".into(), "pedestrian".into()],
            vec![
                vec![0.9 + 0.025, 0.005 + 0.025, 0.045],
                vec![0.005 + 0.025, 0.9 + 0.025, 0.045],
            ],
            vec![0.1, 0.1, 0.8],
        )
    }

    /// Output label names (known classes plus `none`).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of known classes.
    pub fn known_len(&self) -> usize {
        self.labels.len() - 1
    }

    /// The `none` label index.
    pub fn none_label(&self) -> usize {
        self.labels.len() - 1
    }

    /// `P(label | true known class)`.
    pub fn likelihood(&self, true_class: usize, label: usize) -> f64 {
        use sysunc_prob::dist::Discrete as _;
        self.rows[true_class].pmf(label as u64)
    }

    /// `P(label | novel object)`.
    pub fn novel_likelihood(&self, label: usize) -> f64 {
        use sysunc_prob::dist::Discrete as _;
        self.novel_row.pmf(label as u64)
    }

    /// Classifies one encounter.
    pub fn classify(&self, truth: Truth, rng: &mut dyn RngCore) -> Output {
        let label = match truth {
            Truth::Known(i) => self.rows[i].sample_index(rng),
            Truth::Novel(_) => self.novel_row.sample_index(rng),
        };
        let correct = matches!(truth, Truth::Known(i) if i == label);
        let confidence = if correct {
            self.correct_score.sample(rng)
        } else {
            self.wrong_score.sample(rng)
        };
        Output { label, confidence }
    }

    /// Estimates the empirical confusion matrix from `n` labeled trials
    /// per known class — the *epistemic* estimate that converges to the
    /// model's true rows as observations accumulate (paper Sec. III-B).
    pub fn empirical_confusion(&self, n_per_class: usize, rng: &mut dyn RngCore) -> Vec<Vec<f64>> {
        let k = self.known_len();
        let mut out = Vec::with_capacity(k);
        for class in 0..k {
            let mut counts = vec![0u64; self.labels.len()];
            for _ in 0..n_per_class {
                let o = self.classify(Truth::Known(class), rng);
                counts[o.label] += 1;
            }
            out.push(counts.iter().map(|&c| c as f64 / n_per_class as f64).collect());
        }
        out
    }
}

/// A classifier with a rejection option: outputs below the confidence
/// threshold are turned into explicit "uncertain" verdicts — uncertainty
/// *tolerance* through self-awareness (paper Sec. IV).
#[derive(Debug, Clone, PartialEq)]
pub struct RejectingClassifier {
    inner: ClassifierModel,
    threshold: f64,
}

/// Verdict of a rejecting classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Confident classification.
    Label(usize),
    /// The classifier flagged its own uncertainty.
    Uncertain,
}

impl RejectingClassifier {
    /// Wraps a classifier with a confidence threshold in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::InvalidClassifier`] for thresholds
    /// outside `[0, 1]`.
    pub fn new(inner: ClassifierModel, threshold: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(PerceptionError::InvalidClassifier(format!(
                "threshold must be in [0,1], got {threshold}"
            )));
        }
        Ok(Self { inner, threshold })
    }

    /// The wrapped classifier.
    pub fn inner(&self) -> &ClassifierModel {
        &self.inner
    }

    /// Classifies with rejection.
    pub fn classify(&self, truth: Truth, rng: &mut dyn RngCore) -> Verdict {
        let o = self.inner.classify(truth, rng);
        if o.confidence < self.threshold {
            Verdict::Uncertain
        } else {
            Verdict::Label(o.label)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::rng::StdRng;
    use sysunc_prob::rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn validation() {
        assert!(ClassifierModel::new(vec![], vec![], vec![]).is_err());
        assert!(ClassifierModel::new(
            vec!["a".into()],
            vec![vec![0.9, 0.1, 0.0]], // 3 labels for 1 class + none = 2
            vec![0.5, 0.5],
        )
        .is_err());
        assert!(ClassifierModel::paper_camera().is_ok());
        let c = ClassifierModel::paper_camera().unwrap();
        assert!(RejectingClassifier::new(c, 1.5).is_err());
    }

    #[test]
    fn classification_frequencies_match_confusion() {
        let c = ClassifierModel::paper_camera().unwrap();
        let mut r = rng();
        let n = 100_000;
        let mut counts = vec![0u64; 3];
        for _ in 0..n {
            counts[c.classify(Truth::Known(0), &mut r).label] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.925).abs() < 0.005);
        assert!((counts[2] as f64 / n as f64 - 0.045).abs() < 0.005);
    }

    #[test]
    fn novel_objects_mostly_produce_none() {
        let c = ClassifierModel::paper_camera().unwrap();
        let mut r = rng();
        let n = 50_000;
        let none = (0..n)
            .filter(|_| c.classify(Truth::Novel(3), &mut r).label == c.none_label())
            .count();
        assert!((none as f64 / n as f64 - 0.8).abs() < 0.01);
    }

    #[test]
    fn confidence_separates_correct_from_wrong() {
        let c = ClassifierModel::paper_camera().unwrap();
        let mut r = rng();
        let mut correct = Vec::new();
        let mut wrong = Vec::new();
        for _ in 0..20_000 {
            let o = c.classify(Truth::Known(0), &mut r);
            if o.label == 0 {
                correct.push(o.confidence);
            } else {
                wrong.push(o.confidence);
            }
        }
        let mc = sysunc_prob::stats::mean(&correct).unwrap();
        let mw = sysunc_prob::stats::mean(&wrong).unwrap();
        assert!(mc > 0.7 && mw < 0.45, "correct {mc} vs wrong {mw}");
    }

    #[test]
    fn empirical_confusion_converges_to_model() {
        // Epistemic reduction by observation (paper Sec. III-B).
        let c = ClassifierModel::paper_camera().unwrap();
        let mut r = rng();
        let coarse = c.empirical_confusion(100, &mut r);
        let fine = c.empirical_confusion(100_000, &mut r);
        let err = |est: &Vec<Vec<f64>>| -> f64 {
            est.iter()
                .enumerate()
                .map(|(i, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(j, &p)| (p - c.likelihood(i, j)).abs())
                        .sum::<f64>()
                })
                .sum()
        };
        assert!(err(&fine) < err(&coarse), "{} !< {}", err(&fine), err(&coarse));
        assert!(err(&fine) < 0.02);
    }

    #[test]
    fn rejection_reduces_confident_errors() {
        let c = ClassifierModel::paper_camera().unwrap();
        let rej = RejectingClassifier::new(c.clone(), 0.6).unwrap();
        let mut r = rng();
        let n = 50_000;
        let mut plain_errors = 0u64;
        let mut confident_errors = 0u64;
        let mut rejections = 0u64;
        for _ in 0..n {
            let o = c.classify(Truth::Known(1), &mut r);
            if o.label != 1 {
                plain_errors += 1;
            }
            match rej.classify(Truth::Known(1), &mut r) {
                Verdict::Label(l) if l != 1 => confident_errors += 1,
                Verdict::Uncertain => rejections += 1,
                _ => {}
            }
        }
        assert!(confident_errors * 2 < plain_errors, "{confident_errors} vs {plain_errors}");
        assert!(rejections > 0);
    }
}
