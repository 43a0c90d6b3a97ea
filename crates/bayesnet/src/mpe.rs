//! Most probable explanation (MPE): the jointly most likely assignment of
//! all unobserved variables given evidence — the diagnostic query a safety
//! engineer actually asks after an incident ("what single story best
//! explains this output?").

use crate::error::{BnError, Result};
use crate::network::BayesNet;

/// Computes the most probable explanation by exhaustive enumeration over
/// the unobserved variables (exact; guarded for tractability).
///
/// Returns the full assignment (indexed by node id, evidence included) and
/// its joint probability.
///
/// # Errors
///
/// Returns [`BnError::InvalidNode`] when the hidden state space exceeds
/// `2^22` configurations, and [`BnError::InconsistentEvidence`] when every
/// completion has zero probability.
///
/// # Examples
///
/// ```
/// use sysunc_bayesnet::{most_probable_explanation, BayesNet};
/// let mut bn = BayesNet::new();
/// let rain = bn.add_root("rain", vec!["yes", "no"], vec![0.2, 0.8])?;
/// bn.add_node("wet", vec!["yes", "no"], vec![rain],
///     vec![vec![0.9, 0.1], vec![0.1, 0.9]])?;
/// let (assignment, p) = most_probable_explanation(&bn, &[(1, 0)])?; // wet = yes
/// assert_eq!(assignment[0], 0, "rain = yes is the best explanation");
/// assert!(p > 0.0);
/// # Ok::<(), sysunc_bayesnet::BnError>(())
/// ```
/// Range: the returned joint probability lies in `[0, 1]`.
pub fn most_probable_explanation(
    bn: &BayesNet,
    evidence: &[(usize, usize)],
) -> Result<(Vec<usize>, f64)> {
    let n = bn.len();
    for &(v, s) in evidence {
        if v >= n {
            return Err(BnError::UnknownNode(format!("id {v}")));
        }
        if s >= bn.nodes()[v].states.len() {
            return Err(BnError::UnknownState(format!("state {s} of node {v}")));
        }
    }
    let ev: std::collections::HashMap<usize, usize> = evidence.iter().copied().collect();
    let hidden: Vec<usize> = (0..n).filter(|v| !ev.contains_key(v)).collect();
    let space: u64 = hidden
        .iter()
        .map(|&v| bn.nodes()[v].states.len() as u64)
        .product();
    if space > (1 << 22) {
        return Err(BnError::InvalidNode(format!(
            "MPE enumeration over {space} configurations exceeds the guard"
        )));
    }
    let mut assignment = vec![0usize; n];
    for (&v, &s) in &ev {
        assignment[v] = s;
    }
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut idx = vec![0usize; hidden.len()];
    loop {
        for (h, &v) in hidden.iter().enumerate() {
            assignment[v] = idx[h];
        }
        // Joint probability of the full assignment.
        let mut p = 1.0;
        for (id, node) in bn.nodes().iter().enumerate() {
            let mut row = 0usize;
            for &parent in &node.parents {
                row = row * bn.nodes()[parent].states.len() + assignment[parent];
            }
            p *= node.cpt[row][assignment[id]];
            if p == 0.0 {
                break;
            }
        }
        if best.as_ref().is_none_or(|(_, bp)| p > *bp) {
            best = Some((assignment.clone(), p));
        }
        // Odometer.
        let mut h = 0;
        loop {
            if h == hidden.len() {
                #[expect(
                    clippy::expect_used,
                    reason = "the odometer visits at least one configuration before it completes"
                )]
                let (a, p) = best.expect("at least one configuration visited");
                if p <= 0.0 {
                    return Err(BnError::InconsistentEvidence);
                }
                return Ok((a, p));
            }
            idx[h] += 1;
            if idx[h] < bn.nodes()[hidden[h]].states.len() {
                break;
            }
            idx[h] = 0;
            h += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sprinkler() -> BayesNet {
        let mut bn = BayesNet::new();
        let rain = bn.add_root("rain", vec!["yes", "no"], vec![0.2, 0.8]).unwrap();
        let s = bn
            .add_node(
                "sprinkler",
                vec!["on", "off"],
                vec![rain],
                vec![vec![0.01, 0.99], vec![0.4, 0.6]],
            )
            .unwrap();
        bn.add_node(
            "grass_wet",
            vec!["yes", "no"],
            vec![s, rain],
            vec![vec![0.99, 0.01], vec![0.9, 0.1], vec![0.8, 0.2], vec![0.0, 1.0]],
        )
        .unwrap();
        bn
    }

    #[test]
    fn mpe_matches_brute_force_marginal_story() {
        let bn = sprinkler();
        let wet = bn.node_id("grass_wet").unwrap();
        let (assignment, p) = most_probable_explanation(&bn, &[(wet, 0)]).unwrap();
        // Best single story for wet grass: no rain, sprinkler on
        // (0.8 * 0.4 * 0.9 = 0.288) vs rain, no sprinkler
        // (0.2 * 0.99 * 0.8 = 0.158).
        assert_eq!(assignment[bn.node_id("rain").unwrap()], 1, "no rain");
        assert_eq!(assignment[bn.node_id("sprinkler").unwrap()], 0, "sprinkler on");
        assert!((p - 0.8 * 0.4 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn mpe_without_evidence_is_the_mode() {
        let bn = sprinkler();
        let (assignment, p) = most_probable_explanation(&bn, &[]).unwrap();
        // Mode: no rain (0.8), sprinkler off (0.6), dry (1.0).
        assert_eq!(assignment, vec![1, 1, 1]);
        assert!((p - 0.8 * 0.6 * 1.0).abs() < 1e-12);
    }

    #[test]
    fn mpe_on_paper_network() {
        let mut bn = BayesNet::new();
        let gt = bn
            .add_root("ground_truth", vec!["car", "pedestrian", "unknown"], vec![0.6, 0.3, 0.1])
            .unwrap();
        bn.add_node(
            "perception",
            vec!["car", "pedestrian", "car_pedestrian", "none"],
            vec![gt],
            vec![
                vec![0.9, 0.005, 0.05, 0.045],
                vec![0.005, 0.9, 0.05, 0.045],
                vec![0.0, 0.0, 2.0 / 9.0, 7.0 / 9.0],
            ],
        )
        .unwrap();
        let perc = bn.node_id("perception").unwrap();
        // Best explanation of a "none" output is an unknown object.
        let (assignment, _) = most_probable_explanation(&bn, &[(perc, 3)]).unwrap();
        assert_eq!(assignment[0], 2);
        // Best explanation of "car" output is a car.
        let (assignment, _) = most_probable_explanation(&bn, &[(perc, 0)]).unwrap();
        assert_eq!(assignment[0], 0);
    }

    #[test]
    fn impossible_evidence_and_bad_ids() {
        let mut bn = BayesNet::new();
        let a = bn.add_root("a", vec!["x", "y"], vec![1.0, 0.0]).unwrap();
        bn.add_node("b", vec!["u", "v"], vec![a], vec![vec![1.0, 0.0], vec![0.5, 0.5]])
            .unwrap();
        assert!(matches!(
            most_probable_explanation(&bn, &[(1, 1)]),
            Err(BnError::InconsistentEvidence)
        ));
        assert!(most_probable_explanation(&bn, &[(9, 0)]).is_err());
        assert!(most_probable_explanation(&bn, &[(0, 9)]).is_err());
    }
}
