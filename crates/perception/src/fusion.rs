//! Redundant diverse sensor fusion — uncertainty *tolerance* through
//! "redundant architectures with diverse uncertainties" (paper Sec. IV)
//! and the evidence-theoretic fusion the paper's Sec. V-B points to.

use crate::classifier::ClassifierModel;
use crate::error::{PerceptionError, Result};
use crate::world::Truth;
use sysunc_prob::rng::RngCore;
use sysunc_evidence::{Frame, MassFunction};

/// The fused verdict over known classes plus an explicit `unknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedVerdict {
    /// A known class (index).
    Known(usize),
    /// The fusion concluded the object is not confidently any known class.
    Unknown,
}

/// A redundant architecture of independent classifiers over the same known
/// classes.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionSystem {
    channels: Vec<ClassifierModel>,
    /// Prior over known classes + unknown (length `known + 1`).
    prior: Vec<f64>,
    /// Per-channel reliability for evidential fusion, in `[0, 1]`.
    reliabilities: Vec<f64>,
}

impl FusionSystem {
    /// Creates a fusion system.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::InvalidFusion`] for empty channels,
    /// inconsistent label sets, bad priors, or reliabilities outside
    /// `[0, 1]`.
    pub fn new(
        channels: Vec<ClassifierModel>,
        prior: Vec<f64>,
        reliabilities: Vec<f64>,
    ) -> Result<Self> {
        if channels.is_empty() {
            return Err(PerceptionError::InvalidFusion("no channels".into()));
        }
        let k = channels[0].known_len();
        if channels.iter().any(|c| c.known_len() != k) {
            return Err(PerceptionError::InvalidFusion("channels disagree on classes".into()));
        }
        if prior.len() != k + 1 {
            return Err(PerceptionError::InvalidFusion(format!(
                "prior needs {} entries (known + unknown), got {}",
                k + 1,
                prior.len()
            )));
        }
        let total: f64 = prior.iter().sum();
        if (total - 1.0).abs() > 1e-9 || prior.iter().any(|&p| p < 0.0) {
            return Err(PerceptionError::InvalidFusion(format!(
                "prior must be a distribution, sums to {total}"
            )));
        }
        if reliabilities.len() != channels.len()
            || reliabilities.iter().any(|r| !(0.0..=1.0).contains(r))
        {
            return Err(PerceptionError::InvalidFusion(
                "one reliability in [0,1] per channel required".into(),
            ));
        }
        Ok(Self { channels, prior, reliabilities })
    }

    /// Number of known classes.
    pub fn known_len(&self) -> usize {
        self.channels[0].known_len()
    }

    /// Lets every channel observe the encounter; returns the raw labels.
    pub fn observe(&self, truth: Truth, rng: &mut dyn RngCore) -> Vec<usize> {
        self.channels.iter().map(|c| c.classify(truth, rng).label).collect()
    }

    /// Bayesian fusion: posterior over `known + unknown` from independent
    /// channel likelihoods; the verdict is the MAP class, or `Unknown`
    /// when the unknown hypothesis wins.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::InvalidFusion`] for a label count
    /// mismatch.
    pub fn fuse_bayes(&self, labels: &[usize]) -> Result<(FusedVerdict, Vec<f64>)> {
        if labels.len() != self.channels.len() {
            return Err(PerceptionError::InvalidFusion(format!(
                "expected {} labels, got {}",
                self.channels.len(),
                labels.len()
            )));
        }
        let k = self.known_len();
        let mut post = self.prior.clone();
        for (channel, &label) in self.channels.iter().zip(labels) {
            for (class, p) in post.iter_mut().enumerate() {
                let like = if class < k {
                    channel.likelihood(class, label)
                } else {
                    channel.novel_likelihood(label)
                };
                *p *= like;
            }
        }
        let total: f64 = post.iter().sum();
        if total <= 0.0 {
            // All hypotheses excluded: the observation is outside the
            // model — report unknown with a flat posterior.
            let flat = vec![1.0 / (k + 1) as f64; k + 1];
            return Ok((FusedVerdict::Unknown, flat));
        }
        for p in &mut post {
            *p /= total;
        }
        #[expect(
            clippy::expect_used,
            reason = "posteriors are normalized finite values over a non-empty frame"
        )]
        let (best, _) = post
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite posteriors"))
            .expect("non-empty");
        let verdict = if best < k { FusedVerdict::Known(best) } else { FusedVerdict::Unknown };
        Ok((verdict, post))
    }

    /// Dempster–Shafer fusion: each channel report becomes a discounted
    /// simple mass function (label → singleton, `none` → `{unknown}`),
    /// combined by Dempster's rule. Returns the combined mass and the
    /// pignistic-MAP verdict.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::InvalidFusion`] on label mismatch or
    /// total conflict.
    pub fn fuse_dempster(&self, labels: &[usize]) -> Result<(FusedVerdict, MassFunction)> {
        if labels.len() != self.channels.len() {
            return Err(PerceptionError::InvalidFusion(format!(
                "expected {} labels, got {}",
                self.channels.len(),
                labels.len()
            )));
        }
        let k = self.known_len();
        let mut names: Vec<String> = self.channels[0].labels()[..k].to_vec();
        names.push("unknown".into());
        let frame =
            Frame::new(names).map_err(|e| PerceptionError::InvalidFusion(e.to_string()))?;
        let mut combined = MassFunction::vacuous(&frame);
        for ((channel, &label), &rel) in self.channels.iter().zip(labels).zip(&self.reliabilities)
        {
            // The channel asserts its label (or unknown for `none`).
            let target = if label < k { 1u64 << label } else { 1u64 << k };
            let report = MassFunction::from_focal(&frame, vec![(target, 1.0)])
                .and_then(|m| m.discount(rel))
                .map_err(|e| PerceptionError::InvalidFusion(e.to_string()))?;
            let _ = channel;
            combined = combined
                .combine_dempster(&report)
                .map_err(|e| PerceptionError::InvalidFusion(e.to_string()))?;
        }
        let bet = combined.pignistic();
        #[expect(
            clippy::expect_used,
            reason = "pignistic probabilities are finite over a non-empty frame"
        )]
        let (best, _) = bet
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite pignistic"))
            .expect("non-empty frame");
        let verdict = if best < k { FusedVerdict::Known(best) } else { FusedVerdict::Unknown };
        Ok((verdict, combined))
    }

    /// Majority vote (ties → `Unknown`). The baseline fusion rule.
    ///
    /// # Errors
    ///
    /// Returns [`PerceptionError::InvalidFusion`] on label mismatch.
    pub fn fuse_vote(&self, labels: &[usize]) -> Result<FusedVerdict> {
        if labels.len() != self.channels.len() {
            return Err(PerceptionError::InvalidFusion(format!(
                "expected {} labels, got {}",
                self.channels.len(),
                labels.len()
            )));
        }
        let k = self.known_len();
        let mut counts = vec![0usize; k + 1];
        for &l in labels {
            counts[l.min(k)] += 1;
        }
        // `counts` holds k + 1 >= 1 entries, so the fallback never applies.
        let max = counts.iter().max().copied().unwrap_or(0);
        let winners: Vec<usize> =
            counts.iter().enumerate().filter(|(_, &c)| c == max).map(|(i, _)| i).collect();
        if winners.len() != 1 || winners[0] == k {
            Ok(FusedVerdict::Unknown)
        } else {
            Ok(FusedVerdict::Known(winners[0]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::rng::StdRng;
    use sysunc_prob::rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2025)
    }

    /// Camera + radar with *diverse* confusion structures: the camera
    /// confuses car/pedestrian, the radar misses pedestrians but never
    /// confuses them with cars.
    fn diverse_pair() -> FusionSystem {
        let camera = ClassifierModel::paper_camera().unwrap();
        let radar = ClassifierModel::new(
            vec!["car".into(), "pedestrian".into()],
            vec![vec![0.95, 0.0, 0.05], vec![0.0, 0.8, 0.2]],
            vec![0.05, 0.05, 0.9],
        )
        .unwrap();
        FusionSystem::new(
            vec![camera, radar],
            vec![0.6, 0.3, 0.1],
            vec![0.9, 0.9],
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        let cam = ClassifierModel::paper_camera().unwrap();
        assert!(FusionSystem::new(vec![], vec![0.5, 0.5], vec![]).is_err());
        assert!(FusionSystem::new(vec![cam.clone()], vec![0.5, 0.5], vec![0.9]).is_err()); // prior len
        assert!(
            FusionSystem::new(vec![cam.clone()], vec![0.6, 0.3, 0.2], vec![0.9]).is_err()
        ); // prior sum
        assert!(FusionSystem::new(vec![cam], vec![0.6, 0.3, 0.1], vec![1.5]).is_err());
    }

    #[test]
    fn agreeing_channels_give_confident_known_verdict() {
        let sys = diverse_pair();
        let (v, post) = sys.fuse_bayes(&[0, 0]).unwrap();
        assert_eq!(v, FusedVerdict::Known(0));
        assert!(post[0] > 0.95);
        let (vd, mass) = sys.fuse_dempster(&[0, 0]).unwrap();
        assert_eq!(vd, FusedVerdict::Known(0));
        let frame_car = 0b001;
        assert!(mass.belief(frame_car) > 0.9);
        assert_eq!(sys.fuse_vote(&[0, 0]).unwrap(), FusedVerdict::Known(0));
    }

    #[test]
    fn double_none_is_evidence_of_unknown() {
        let sys = diverse_pair();
        let none = 2;
        let (v, post) = sys.fuse_bayes(&[none, none]).unwrap();
        assert_eq!(v, FusedVerdict::Unknown, "posterior {post:?}");
        assert!(post[2] > 0.5);
        assert_eq!(sys.fuse_vote(&[none, none]).unwrap(), FusedVerdict::Unknown);
    }

    #[test]
    fn disagreement_widens_dempster_ignorance() {
        let sys = diverse_pair();
        let (_, agree) = sys.fuse_dempster(&[0, 0]).unwrap();
        let (_, conflict) = sys.fuse_dempster(&[0, 1]).unwrap();
        let frame_theta = 0b111;
        assert!(
            conflict.mass(frame_theta) >= agree.mass(frame_theta),
            "conflict must not shrink ignorance"
        );
        // Conflicting singletons leave wide Bel/Pl gaps on car.
        let car = 0b001;
        assert!(conflict.interval(car).width() > agree.interval(car).width());
    }

    #[test]
    fn fusion_beats_single_channel_on_misclassification() {
        // The paper's tolerance claim: redundant diverse sensors reduce
        // hazardous misclassification.
        let sys = diverse_pair();
        let single = ClassifierModel::paper_camera().unwrap();
        let mut r = rng();
        let n = 30_000;
        let mut single_wrong = 0u64;
        let mut fused_wrong = 0u64;
        for _ in 0..n {
            // Pedestrian misdetected as car is the hazardous case.
            let truth = Truth::Known(1);
            if single.classify(truth, &mut r).label == 0 {
                single_wrong += 1;
            }
            let labels = sys.observe(truth, &mut r);
            if sys.fuse_bayes(&labels).unwrap().0 == FusedVerdict::Known(0) {
                fused_wrong += 1;
            }
        }
        assert!(
            fused_wrong * 3 < single_wrong.max(1) * 2,
            "fusion {fused_wrong} should cut single-channel {single_wrong}"
        );
    }

    #[test]
    fn conservative_fusion_raises_novel_detection_rate() {
        // Agreement-based (voting) fusion accepts a known class only when
        // the diverse channels concur — novel objects almost never pass.
        let sys = diverse_pair();
        let single = ClassifierModel::paper_camera().unwrap();
        let mut r = rng();
        let n = 30_000;
        let mut single_flagged = 0u64;
        let mut vote_flagged = 0u64;
        for _ in 0..n {
            let truth = Truth::Novel(2);
            if single.classify(truth, &mut r).label == single.none_label() {
                single_flagged += 1;
            }
            let labels = sys.observe(truth, &mut r);
            if sys.fuse_vote(&labels).unwrap() == FusedVerdict::Unknown {
                vote_flagged += 1;
            }
        }
        assert!(
            vote_flagged > single_flagged,
            "voting fusion {vote_flagged} should flag more novelties than {single_flagged}"
        );
        assert!(vote_flagged as f64 / n as f64 > 0.95);
    }

    #[test]
    fn bayes_fusion_trades_novelty_flagging_for_availability() {
        // With a strong known-class prior, Bayesian fusion accepts *more*
        // novel objects as known than the raw camera — a real design
        // tension the means-comparison experiment (E5/E8) quantifies.
        let sys = diverse_pair();
        let mut r = rng();
        let n = 20_000;
        let mut bayes_unknown = 0u64;
        for _ in 0..n {
            let labels = sys.observe(Truth::Novel(2), &mut r);
            if sys.fuse_bayes(&labels).unwrap().0 == FusedVerdict::Unknown {
                bayes_unknown += 1;
            }
        }
        let rate = bayes_unknown as f64 / n as f64;
        assert!((rate - 0.72).abs() < 0.03, "expected ~0.72 (both-none), got {rate}");
    }

    #[test]
    fn label_count_mismatch_errors() {
        let sys = diverse_pair();
        assert!(sys.fuse_bayes(&[0]).is_err());
        assert!(sys.fuse_dempster(&[0, 1, 2]).is_err());
        assert!(sys.fuse_vote(&[0]).is_err());
    }
}
