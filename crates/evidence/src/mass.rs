//! Dempster–Shafer theory of evidence on finite frames of discernment.
//!
//! This is the mathematical machinery the paper's Sec. V-B builds on
//! (Shafer \[36\]; Simon–Weber–Evsukoff \[8\]): basic probability assignments
//! over *sets* of hypotheses rather than single hypotheses, so that
//! epistemic indecision (mass on `{car, pedestrian}`) and ontological
//! openness (mass on the whole frame) are first-class citizens.

use crate::error::{EvidenceError, Result};
use crate::interval::Interval;
use sysunc_prob::json::{field, obj, FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// A frame of discernment: the (exhaustive, mutually exclusive) set of
/// hypotheses. Limited to 64 elements so subsets are `u64` bitmasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    names: Vec<String>,
}

impl Frame {
    /// Creates a frame from hypothesis names.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidFrame`] for empty frames, more than
    /// 64 hypotheses, or duplicate names.
    pub fn new<S: Into<String>>(names: Vec<S>) -> Result<Self> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.is_empty() || names.len() > 64 {
            return Err(EvidenceError::InvalidFrame(format!(
                "frame must have 1..=64 hypotheses, got {}",
                names.len()
            )));
        }
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        if unique.len() != names.len() {
            return Err(EvidenceError::InvalidFrame("duplicate hypothesis names".into()));
        }
        Ok(Self { names })
    }

    /// Number of hypotheses.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the frame is empty (never true for constructed frames).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Hypothesis names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Bitmask of the full frame `Θ`.
    pub fn theta(&self) -> u64 {
        if self.names.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.names.len()) - 1
        }
    }

    /// Index of a hypothesis by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Bitmask for a set of hypothesis names.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::UnknownHypothesis`] for names not in the
    /// frame.
    pub fn subset(&self, names: &[&str]) -> Result<u64> {
        let mut mask = 0u64;
        for name in names {
            let idx = self
                .index_of(name)
                .ok_or_else(|| EvidenceError::UnknownHypothesis((*name).to_string()))?;
            mask |= 1 << idx;
        }
        Ok(mask)
    }

    /// Bitmask of the singleton `{name}`.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::UnknownHypothesis`] when the name is not in
    /// the frame.
    pub fn singleton(&self, name: &str) -> Result<u64> {
        self.subset(&[name])
    }

    /// Formats a subset bitmask as `{a, b}`.
    pub fn format_subset(&self, mask: u64) -> String {
        let items: Vec<&str> = self
            .names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| n.as_str())
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A basic probability assignment (mass function) over a frame.
///
/// Focal elements are subsets (bitmasks) with positive mass; masses sum
/// to 1. Mass on non-singletons is exactly the representation of epistemic
/// indecision; mass on the full frame `Θ` is total ignorance.
///
/// # Examples
///
/// ```
/// use sysunc_evidence::{Frame, MassFunction};
/// let frame = Frame::new(vec!["car", "pedestrian", "unknown"])?;
/// let m = MassFunction::from_focal(&frame, vec![
///     (frame.singleton("car")?, 0.7),
///     (frame.subset(&["car", "pedestrian"])?, 0.2),
///     (frame.theta(), 0.1),
/// ])?;
/// let car = frame.singleton("car")?;
/// assert!((m.belief(car) - 0.7).abs() < 1e-12);
/// assert!((m.plausibility(car) - 1.0).abs() < 1e-12);
/// # Ok::<(), sysunc_evidence::EvidenceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MassFunction {
    frame: Frame,
    /// Focal elements, keyed by subset bitmask. BTreeMap keeps iteration
    /// deterministic.
    focal: BTreeMap<u64, f64>,
}

impl MassFunction {
    /// The vacuous mass function: all mass on `Θ` (total ignorance).
    pub fn vacuous(frame: &Frame) -> Self {
        let mut focal = BTreeMap::new();
        focal.insert(frame.theta(), 1.0);
        Self { frame: frame.clone(), focal }
    }

    /// A Bayesian mass function: mass only on singletons, i.e. an ordinary
    /// probability distribution.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] for wrong length, negative
    /// entries or sums away from 1.
    pub fn bayesian(frame: &Frame, probs: &[f64]) -> Result<Self> {
        if probs.len() != frame.len() {
            return Err(EvidenceError::InvalidMass(format!(
                "expected {} probabilities, got {}",
                frame.len(),
                probs.len()
            )));
        }
        let focal: Vec<(u64, f64)> = probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(i, &p)| (1u64 << i, p))
            .collect();
        Self::from_focal(frame, focal)
    }

    /// Builds a mass function from focal elements.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] for empty-set mass, negative
    /// masses, subsets outside the frame, or totals away from 1 (beyond
    /// 1e-9; exact renormalization is applied inside).
    pub fn from_focal(frame: &Frame, elements: Vec<(u64, f64)>) -> Result<Self> {
        let mut focal: BTreeMap<u64, f64> = BTreeMap::new();
        let theta = frame.theta();
        let mut total = 0.0;
        for (set, mass) in elements {
            if mass < 0.0 || !mass.is_finite() {
                return Err(EvidenceError::InvalidMass(format!("negative mass {mass}")));
            }
            if mass == 0.0 {
                continue;
            }
            if set == 0 {
                return Err(EvidenceError::InvalidMass("mass on the empty set".into()));
            }
            if set & !theta != 0 {
                return Err(EvidenceError::InvalidMass(format!(
                    "subset {set:#b} outside the frame"
                )));
            }
            *focal.entry(set).or_insert(0.0) += mass;
            total += mass;
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(EvidenceError::InvalidMass(format!("masses sum to {total}, expected 1")));
        }
        for v in focal.values_mut() {
            *v /= total;
        }
        Ok(Self { frame: frame.clone(), focal })
    }

    /// The frame of discernment.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Iterator over focal elements `(subset mask, mass)`.
    pub fn focal_elements(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.focal.iter().map(|(&s, &m)| (s, m))
    }

    /// Mass assigned to an exact subset (zero for non-focal subsets).
    /// Range: `[0, 1]`; focal masses sum to one over the frame.
    pub fn mass(&self, set: u64) -> f64 {
        self.focal.get(&set).copied().unwrap_or(0.0)
    }

    /// Belief `Bel(A) = Σ_{B ⊆ A} m(B)` — the provable support for `A`.
    /// Range: `[0, 1]`, with `Bel(A) <= Pl(A)`.
    pub fn belief(&self, set: u64) -> f64 {
        // `+ 0.0` normalizes the empty-sum negative zero.
        self.focal
            .iter()
            .filter(|(&b, _)| b & !set == 0)
            .map(|(_, &m)| m)
            .sum::<f64>()
            + 0.0
    }

    /// Plausibility `Pl(A) = Σ_{B ∩ A ≠ ∅} m(B)` — the mass not
    /// contradicting `A`.
    /// Range: `[0, 1]`, with `Pl(A) = 1 - Bel(not A)`.
    pub fn plausibility(&self, set: u64) -> f64 {
        self.focal
            .iter()
            .filter(|(&b, _)| b & set != 0)
            .map(|(_, &m)| m)
            .sum::<f64>()
            + 0.0
    }

    /// The `[Bel, Pl]` interval of a subset — an epistemic probability
    /// bound.
    pub fn interval(&self, set: u64) -> Interval {
        #[expect(
            clippy::expect_used,
            reason = "Bel <= Pl holds for every normalized mass function"
        )]
        Interval::new(self.belief(set), self.plausibility(set))
            .expect("Bel <= Pl by construction")
            .clamp_unit()
    }

    /// Pignistic transformation: spreads every focal mass uniformly over
    /// its elements, producing a single probability distribution for
    /// decision making (Smets).
    pub fn pignistic(&self) -> Vec<f64> {
        let n = self.frame.len();
        let mut p = vec![0.0; n];
        for (&set, &m) in &self.focal {
            let card = set.count_ones() as f64;
            for (i, pi) in p.iter_mut().enumerate() {
                if set & (1 << i) != 0 {
                    *pi += m / card;
                }
            }
        }
        p
    }

    /// Dempster's conflict coefficient `K` with another mass function:
    /// the combined mass falling on the empty set.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::FrameMismatch`] for different frames.
    pub fn conflict(&self, other: &MassFunction) -> Result<f64> {
        if self.frame != other.frame {
            return Err(EvidenceError::FrameMismatch);
        }
        let mut k = 0.0;
        for (&a, &ma) in &self.focal {
            for (&b, &mb) in &other.focal {
                if a & b == 0 {
                    k += ma * mb;
                }
            }
        }
        Ok(k)
    }

    /// Dempster's rule of combination (conjunctive, conflict renormalized).
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::FrameMismatch`] for different frames and
    /// [`EvidenceError::TotalConflict`] when `K = 1`.
    pub fn combine_dempster(&self, other: &MassFunction) -> Result<MassFunction> {
        if self.frame != other.frame {
            return Err(EvidenceError::FrameMismatch);
        }
        let mut combined: BTreeMap<u64, f64> = BTreeMap::new();
        let mut k = 0.0;
        for (&a, &ma) in &self.focal {
            for (&b, &mb) in &other.focal {
                let inter = a & b;
                if inter == 0 {
                    k += ma * mb;
                } else {
                    *combined.entry(inter).or_insert(0.0) += ma * mb;
                }
            }
        }
        if (1.0 - k).abs() < 1e-12 {
            return Err(EvidenceError::TotalConflict);
        }
        for v in combined.values_mut() {
            *v /= 1.0 - k;
        }
        Ok(MassFunction { frame: self.frame.clone(), focal: combined })
    }

    /// Yager's rule: conflict mass is transferred to `Θ` (ignorance) rather
    /// than renormalized — more cautious under high conflict.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::FrameMismatch`] for different frames.
    pub fn combine_yager(&self, other: &MassFunction) -> Result<MassFunction> {
        if self.frame != other.frame {
            return Err(EvidenceError::FrameMismatch);
        }
        let mut combined: BTreeMap<u64, f64> = BTreeMap::new();
        let mut k = 0.0;
        for (&a, &ma) in &self.focal {
            for (&b, &mb) in &other.focal {
                let inter = a & b;
                if inter == 0 {
                    k += ma * mb;
                } else {
                    *combined.entry(inter).or_insert(0.0) += ma * mb;
                }
            }
        }
        if k > 0.0 {
            *combined.entry(self.frame.theta()).or_insert(0.0) += k;
        }
        Ok(MassFunction { frame: self.frame.clone(), focal: combined })
    }

    /// Shafer discounting: scales all evidence by `reliability` and moves
    /// the rest to `Θ`. Models a partially trusted source.
    ///
    /// # Errors
    ///
    /// Returns [`EvidenceError::InvalidMass`] for reliability outside
    /// `[0, 1]`.
    pub fn discount(&self, reliability: f64) -> Result<MassFunction> {
        if !(0.0..=1.0).contains(&reliability) {
            return Err(EvidenceError::InvalidMass(format!(
                "reliability must be in [0,1], got {reliability}"
            )));
        }
        let mut focal: BTreeMap<u64, f64> = BTreeMap::new();
        for (&set, &m) in &self.focal {
            *focal.entry(set).or_insert(0.0) += reliability * m;
        }
        *focal.entry(self.frame.theta()).or_insert(0.0) += 1.0 - reliability;
        focal.retain(|_, m| *m > 0.0);
        Ok(MassFunction { frame: self.frame.clone(), focal })
    }

    /// Total mass on non-singleton focal elements — a scalar measure of the
    /// epistemic+ontological (non-Bayesian) content of the evidence.
    /// Range: `[0, 1]` — the mass assigned to non-singleton sets.
    pub fn nonspecificity_mass(&self) -> f64 {
        self.focal
            .iter()
            .filter(|(&s, _)| s.count_ones() > 1)
            .map(|(_, &m)| m)
            .sum::<f64>()
            + 0.0
    }
}

impl ToJson for Frame {
    fn to_json(&self) -> Json {
        obj([("names", self.names.to_json())])
    }
}

impl FromJson for Frame {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let names: Vec<String> = field(v, "names")?;
        Frame::new(names).map_err(|e| JsonError::decode(e.to_string()))
    }
}

impl ToJson for MassFunction {
    fn to_json(&self) -> Json {
        let focal: Vec<Json> = self
            .focal
            .iter()
            .map(|(&set, &m)| Json::Arr(vec![Json::U64(set), Json::Num(m)]))
            .collect();
        obj([("frame", self.frame.to_json()), ("focal", Json::Arr(focal))])
    }
}

impl FromJson for MassFunction {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let frame: Frame = field(v, "frame")?;
        let pairs = v
            .get("focal")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::missing("focal"))?;
        let focal = pairs
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([set, m]) => {
                    let set = set
                        .as_u64()
                        .ok_or_else(|| JsonError::decode("focal set must be a u64 bitmask"))?;
                    let m = m.as_f64().ok_or_else(|| JsonError::decode("focal mass must be a number"))?;
                    Ok((set, m))
                }
                _ => Err(JsonError::decode("focal element must be a [set, mass] pair")),
            })
            .collect::<std::result::Result<Vec<(u64, f64)>, JsonError>>()?;
        MassFunction::from_focal(&frame, focal).map_err(|e| JsonError::decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame3() -> Frame {
        Frame::new(vec!["car", "pedestrian", "unknown"]).unwrap()
    }

    #[test]
    fn frame_validation() {
        assert!(Frame::new::<&str>(vec![]).is_err());
        assert!(Frame::new(vec!["a", "a"]).is_err());
        let f = frame3();
        assert_eq!(f.theta(), 0b111);
        assert_eq!(f.singleton("car").unwrap(), 0b001);
        assert_eq!(f.subset(&["car", "unknown"]).unwrap(), 0b101);
        assert!(f.singleton("bike").is_err());
        assert_eq!(f.format_subset(0b011), "{car, pedestrian}");
    }

    #[test]
    fn mass_validation() {
        let f = frame3();
        assert!(MassFunction::from_focal(&f, vec![(0b001, 0.5)]).is_err()); // sums to 0.5
        assert!(MassFunction::from_focal(&f, vec![(0, 1.0)]).is_err()); // empty set
        assert!(MassFunction::from_focal(&f, vec![(0b1000, 1.0)]).is_err()); // outside frame
        assert!(MassFunction::from_focal(&f, vec![(0b001, -0.5), (0b010, 1.5)]).is_err());
        assert!(MassFunction::bayesian(&f, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn belief_plausibility_sandwich() {
        // Bel(A) <= BetP(A) <= Pl(A) for every subset.
        let f = frame3();
        let m = MassFunction::from_focal(
            &f,
            vec![(0b001, 0.5), (0b011, 0.2), (0b111, 0.3)],
        )
        .unwrap();
        let bet = m.pignistic();
        for set in 1u64..8 {
            let bel = m.belief(set);
            let pl = m.plausibility(set);
            let betp: f64 = (0..3).filter(|i| set & (1 << i) != 0).map(|i| bet[i]).sum();
            assert!(bel <= betp + 1e-12 && betp <= pl + 1e-12, "set {set}: {bel} {betp} {pl}");
        }
        // Duality: Pl(A) = 1 - Bel(¬A).
        for set in 1u64..8 {
            let compl = !set & f.theta();
            assert!((m.plausibility(set) - (1.0 - m.belief(compl))).abs() < 1e-12);
        }
    }

    #[test]
    fn bayesian_mass_has_equal_bel_and_pl() {
        let f = frame3();
        let m = MassFunction::bayesian(&f, &[0.6, 0.3, 0.1]).unwrap();
        for set in 1u64..8 {
            assert!((m.belief(set) - m.plausibility(set)).abs() < 1e-12);
        }
        assert_eq!(m.nonspecificity_mass(), 0.0);
    }

    #[test]
    fn vacuous_mass_is_total_ignorance() {
        let f = frame3();
        let m = MassFunction::vacuous(&f);
        let car = f.singleton("car").unwrap();
        assert_eq!(m.belief(car), 0.0);
        assert_eq!(m.plausibility(car), 1.0);
        assert_eq!(m.interval(car).width(), 1.0);
        let p = m.pignistic();
        assert!((p[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dempster_combination_zadeh_example() {
        // Zadeh's classic: two experts, strong conflict.
        let f = Frame::new(vec!["a", "b", "c"]).unwrap();
        let m1 = MassFunction::from_focal(&f, vec![(0b001, 0.99), (0b010, 0.01)]).unwrap();
        let m2 = MassFunction::from_focal(&f, vec![(0b100, 0.99), (0b010, 0.01)]).unwrap();
        let k = m1.conflict(&m2).unwrap();
        assert!((k - 0.9999).abs() < 1e-12);
        let dempster = m1.combine_dempster(&m2).unwrap();
        // The infamous result: all mass on the barely supported "b".
        assert!((dempster.mass(0b010) - 1.0).abs() < 1e-12);
        // Yager is cautious: conflict goes to ignorance.
        let yager = m1.combine_yager(&m2).unwrap();
        assert!((yager.mass(f.theta()) - 0.9999).abs() < 1e-12);
    }

    #[test]
    fn dempster_is_commutative() {
        let f = frame3();
        let m1 = MassFunction::from_focal(&f, vec![(0b001, 0.6), (0b111, 0.4)]).unwrap();
        let m2 = MassFunction::from_focal(&f, vec![(0b011, 0.5), (0b111, 0.5)]).unwrap();
        let a = m1.combine_dempster(&m2).unwrap();
        let b = m2.combine_dempster(&m1).unwrap();
        for set in 1u64..8 {
            assert!((a.mass(set) - b.mass(set)).abs() < 1e-12);
        }
    }

    #[test]
    fn vacuous_is_neutral_element_for_dempster() {
        let f = frame3();
        let m = MassFunction::from_focal(&f, vec![(0b001, 0.7), (0b011, 0.3)]).unwrap();
        let combined = m.combine_dempster(&MassFunction::vacuous(&f)).unwrap();
        for set in 1u64..8 {
            assert!((combined.mass(set) - m.mass(set)).abs() < 1e-12);
        }
    }

    #[test]
    fn total_conflict_is_an_error() {
        let f = frame3();
        let m1 = MassFunction::from_focal(&f, vec![(0b001, 1.0)]).unwrap();
        let m2 = MassFunction::from_focal(&f, vec![(0b010, 1.0)]).unwrap();
        assert!(matches!(m1.combine_dempster(&m2), Err(EvidenceError::TotalConflict)));
        // Yager handles it: everything becomes ignorance.
        let y = m1.combine_yager(&m2).unwrap();
        assert!((y.mass(f.theta()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discounting_moves_mass_to_ignorance() {
        let f = frame3();
        let m = MassFunction::bayesian(&f, &[0.8, 0.2, 0.0]).unwrap();
        let d = m.discount(0.9).unwrap();
        assert!((d.mass(0b001) - 0.72).abs() < 1e-12);
        assert!((d.mass(f.theta()) - 0.1).abs() < 1e-12);
        // Discounting widens Bel-Pl intervals (more epistemic uncertainty).
        let car = f.singleton("car").unwrap();
        assert!(d.interval(car).width() > m.interval(car).width());
        assert!(m.discount(1.5).is_err());
    }

    #[test]
    fn combination_reduces_ignorance() {
        // Two independent sources pointing at "car" sharpen belief.
        let f = frame3();
        let weak = MassFunction::from_focal(&f, vec![(0b001, 0.5), (0b111, 0.5)]).unwrap();
        let combined = weak.combine_dempster(&weak).unwrap();
        let car = f.singleton("car").unwrap();
        assert!(combined.belief(car) > weak.belief(car));
        assert!(combined.interval(car).width() < weak.interval(car).width());
    }
}
