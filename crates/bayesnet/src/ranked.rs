//! Ranked-node CPT generation (Fenton, Neil & Caballero — the paper's
//! reference \[37\]).
//!
//! The paper notes that "the number of parameters that need to be elicited
//! in the CPT grows exponentially with the number of parent nodes", and
//! points to ranked nodes as a remedy. A *ranked node* has ordered states
//! (e.g. `low < medium < high`) mapped onto equal subintervals of `[0,1]`;
//! the child's conditional distribution is a truncated normal centred on a
//! weighted mean of the parents' interval midpoints. The whole CPT is thus
//! generated from one weight per parent plus one variance — linear instead
//! of exponential elicitation.

use crate::error::{BnError, Result};
use sysunc_prob::dist::{Continuous, TruncatedNormal};

/// Generates a ranked-node CPT.
///
/// - `parent_state_counts[i]` — number of ordered states of parent `i`;
/// - `weights[i]` — relative influence of parent `i` (non-negative, not
///   all zero);
/// - `child_states` — number of ordered states of the child;
/// - `sigma` — standard deviation of the truncated-normal mixing
///   distribution on the `[0,1]` scale (small = parents dominate,
///   large = flat).
///
/// Rows are ordered with the **last parent iterating fastest**, matching
/// [`crate::BayesNet::add_node`].
///
/// # Errors
///
/// Returns [`BnError::InvalidNode`] for empty parents, zero state counts,
/// invalid weights, `child_states == 0`, or non-positive `sigma`.
///
/// # Examples
///
/// ```
/// use sysunc_bayesnet::{ranked_cpt, BayesNet};
///
/// // Two 3-state parents, camera quality twice as influential as lighting.
/// let cpt = ranked_cpt(&[3, 3], &[2.0, 1.0], 3, 0.15)?;
/// assert_eq!(cpt.len(), 9);
/// let mut bn = BayesNet::new();
/// let cam = bn.add_root("camera", vec!["low", "med", "high"], vec![0.2, 0.5, 0.3])?;
/// let light = bn.add_root("light", vec!["low", "med", "high"], vec![0.3, 0.4, 0.3])?;
/// bn.add_node("quality", vec!["low", "med", "high"], vec![cam, light], cpt)?;
/// # Ok::<(), sysunc_bayesnet::BnError>(())
/// ```
pub fn ranked_cpt(
    parent_state_counts: &[usize],
    weights: &[f64],
    child_states: usize,
    sigma: f64,
) -> Result<Vec<Vec<f64>>> {
    if parent_state_counts.is_empty() || parent_state_counts.len() != weights.len() {
        return Err(BnError::InvalidNode(
            "ranked_cpt: one weight per parent required (non-empty)".into(),
        ));
    }
    if parent_state_counts.contains(&0) || child_states == 0 {
        return Err(BnError::InvalidNode("ranked_cpt: zero state count".into()));
    }
    if weights.iter().any(|&w| w < 0.0 || !w.is_finite()) {
        return Err(BnError::InvalidNode("ranked_cpt: weights must be non-negative".into()));
    }
    let weight_sum: f64 = weights.iter().sum();
    if weight_sum <= 0.0 {
        return Err(BnError::InvalidNode("ranked_cpt: weights must not all be zero".into()));
    }
    if !(sigma > 0.0) || !sigma.is_finite() {
        return Err(BnError::InvalidNode(format!(
            "ranked_cpt: sigma must be > 0, got {sigma}"
        )));
    }
    let rows: usize = parent_state_counts.iter().product();
    let mut cpt = Vec::with_capacity(rows);
    let mut combo = vec![0usize; parent_state_counts.len()];
    for _ in 0..rows {
        // Weighted mean of parent interval midpoints on [0, 1].
        let mu: f64 = combo
            .iter()
            .zip(parent_state_counts)
            .zip(weights)
            .map(|((&s, &count), &w)| w * (s as f64 + 0.5) / count as f64)
            .sum::<f64>()
            / weight_sum;
        let dist = TruncatedNormal::new(mu, sigma, 0.0, 1.0)
            .map_err(|e| BnError::InvalidNode(e.to_string()))?;
        let mut row = Vec::with_capacity(child_states);
        let mut prev = 0.0;
        for s in 0..child_states {
            let hi = (s as f64 + 1.0) / child_states as f64;
            let c = if s + 1 == child_states { 1.0 } else { dist.cdf(hi) };
            row.push((c - prev).max(0.0));
            prev = c;
        }
        // Exact normalization against round-off.
        let total: f64 = row.iter().sum();
        for v in &mut row {
            *v /= total;
        }
        cpt.push(row);
        // Odometer increment, last parent fastest.
        for d in (0..combo.len()).rev() {
            combo[d] += 1;
            if combo[d] < parent_state_counts[d] {
                break;
            }
            combo[d] = 0;
        }
    }
    Ok(cpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BayesNet;

    #[test]
    fn validation() {
        assert!(ranked_cpt(&[], &[], 3, 0.1).is_err());
        assert!(ranked_cpt(&[3], &[1.0, 2.0], 3, 0.1).is_err());
        assert!(ranked_cpt(&[0], &[1.0], 3, 0.1).is_err());
        assert!(ranked_cpt(&[3], &[1.0], 0, 0.1).is_err());
        assert!(ranked_cpt(&[3], &[-1.0], 3, 0.1).is_err());
        assert!(ranked_cpt(&[3], &[0.0], 3, 0.1).is_err());
        assert!(ranked_cpt(&[3], &[1.0], 3, 0.0).is_err());
    }

    #[test]
    fn rows_are_distributions() {
        let cpt = ranked_cpt(&[3, 4], &[1.0, 2.0], 5, 0.2).unwrap();
        assert_eq!(cpt.len(), 12);
        for row in &cpt {
            assert_eq!(row.len(), 5);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn monotone_in_parent_rank() {
        // Higher parent state shifts the child distribution upward
        // (first-order stochastic dominance on the expected rank).
        let cpt = ranked_cpt(&[3], &[1.0], 3, 0.2).unwrap();
        let expected_rank = |row: &Vec<f64>| -> f64 {
            row.iter().enumerate().map(|(i, &p)| i as f64 * p).sum()
        };
        assert!(expected_rank(&cpt[0]) < expected_rank(&cpt[1]));
        assert!(expected_rank(&cpt[1]) < expected_rank(&cpt[2]));
    }

    #[test]
    fn weights_control_influence() {
        // With weight (10, 1), the first parent dominates: flipping it
        // moves the child much more than flipping the second.
        let cpt = ranked_cpt(&[2, 2], &[10.0, 1.0], 2, 0.25).unwrap();
        // Rows: (p1, p2) = (0,0), (0,1), (1,0), (1,1) — last parent fastest.
        let p_high = |row: &Vec<f64>| row[1];
        let d_first = (p_high(&cpt[2]) - p_high(&cpt[0])).abs();
        let d_second = (p_high(&cpt[1]) - p_high(&cpt[0])).abs();
        assert!(d_first > 3.0 * d_second, "{d_first} vs {d_second}");
    }

    #[test]
    fn small_sigma_sharpens() {
        let sharp = ranked_cpt(&[3], &[1.0], 3, 0.05).unwrap();
        let flat = ranked_cpt(&[3], &[1.0], 3, 1.0).unwrap();
        assert!(sharp[0][0] > flat[0][0]);
        assert!(sharp[2][2] > flat[2][2]);
        // Very large sigma approaches uniform.
        let very_flat = ranked_cpt(&[3], &[1.0], 3, 50.0).unwrap();
        for row in &very_flat {
            for &p in row {
                assert!((p - 1.0 / 3.0).abs() < 0.05);
            }
        }
    }

    #[test]
    fn generated_cpt_loads_into_network() {
        // End-to-end: build a three-parent node whose raw CPT would need
        // 27 hand-elicited rows — ranked_cpt generates it from 3 weights.
        let cpt = ranked_cpt(&[3, 3, 3], &[1.0, 1.0, 2.0], 3, 0.2).unwrap();
        let mut bn = BayesNet::new();
        let states = vec!["low", "med", "high"];
        let a = bn.add_root("a", states.clone(), vec![1.0 / 3.0; 3]).unwrap();
        let b = bn.add_root("b", states.clone(), vec![1.0 / 3.0; 3]).unwrap();
        let c = bn.add_root("c", states.clone(), vec![1.0 / 3.0; 3]).unwrap();
        bn.add_node("out", states, vec![a, b, c], cpt).unwrap();
        let m = bn.marginal("out", &[]).unwrap();
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Conditioning the dominant parent high shifts the output high.
        let high = bn.marginal("out", &[("c", "high")]).unwrap();
        let low = bn.marginal("out", &[("c", "low")]).unwrap();
        assert!(high[2] > low[2]);
    }
}
