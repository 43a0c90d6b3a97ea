//! Inference engines: exact variable elimination and approximate
//! likelihood-weighted sampling.

use crate::error::{BnError, Result};
use crate::factor::Factor;
use crate::network::BayesNet;
use sysunc_prob::rng::RngCore;

/// Exact inference by variable elimination with a min-fill/min-degree
/// style greedy ordering.
#[derive(Debug)]
pub struct VariableElimination<'a> {
    bn: &'a BayesNet,
}

impl<'a> VariableElimination<'a> {
    /// Creates an engine over a network.
    pub fn new(bn: &'a BayesNet) -> Self {
        Self { bn }
    }

    /// Posterior marginal `P(query | evidence)` as a probability vector
    /// over the query node's states.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::InconsistentEvidence`] when the evidence has zero
    /// probability, plus factor-level errors on malformed networks.
    pub fn marginal(&self, query: usize, evidence: &[(usize, usize)]) -> Result<Vec<f64>> {
        if query >= self.bn.len() {
            return Err(BnError::UnknownNode(format!("id {query}")));
        }
        let factor = self.run(&[query], evidence)?;
        let factor = factor.normalized()?;
        Ok(factor.values().to_vec())
    }

    /// Joint posterior over a set of query nodes (values in row-major
    /// order of the query list).
    ///
    /// # Errors
    ///
    /// Same as [`VariableElimination::marginal`].
    pub fn joint(&self, query: &[usize], evidence: &[(usize, usize)]) -> Result<Factor> {
        self.run(query, evidence)?.normalized()
    }

    /// Probability of the evidence `P(e)`.
    ///
    /// # Errors
    ///
    /// Factor-level errors on malformed networks.
    /// Range: `[0, 1]` — a normalized probability of the evidence.
    pub fn evidence_probability(&self, evidence: &[(usize, usize)]) -> Result<f64> {
        Ok(self.run(&[], evidence)?.total())
    }

    /// Core elimination loop.
    fn run(&self, query: &[usize], evidence: &[(usize, usize)]) -> Result<Factor> {
        // Collect CPT factors with evidence applied.
        let mut factors: Vec<Factor> = Vec::with_capacity(self.bn.len());
        for id in 0..self.bn.len() {
            let mut f = self.bn.node_factor(id);
            for &(var, state) in evidence {
                f = f.reduce(var, state)?;
            }
            factors.push(f);
        }
        // Eliminate all hidden variables.
        let keep: std::collections::HashSet<usize> = query
            .iter()
            .copied()
            .chain(evidence.iter().map(|&(v, _)| v))
            .collect();
        let mut hidden: Vec<usize> =
            (0..self.bn.len()).filter(|v| !keep.contains(v)).collect();
        // Greedy: repeatedly eliminate the variable whose product factor
        // has the smallest resulting scope.
        while !hidden.is_empty() {
            #[expect(
                clippy::expect_used,
                reason = "the loop runs only while `hidden` is non-empty"
            )]
            let (pick_idx, _) = hidden
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let mut scope: std::collections::HashSet<usize> =
                        std::collections::HashSet::new();
                    for f in factors.iter().filter(|f| f.vars().contains(&v)) {
                        scope.extend(f.vars().iter().copied());
                    }
                    (i, scope.len())
                })
                .min_by_key(|&(_, size)| size)
                .expect("hidden not empty");
            let var = hidden.swap_remove(pick_idx);
            let (with_var, without_var): (Vec<Factor>, Vec<Factor>) =
                factors.into_iter().partition(|f| f.vars().contains(&var));
            let mut prod = Factor::unit();
            for f in with_var {
                prod = prod.product(&f)?;
            }
            factors = without_var;
            factors.push(prod.sum_out(var));
        }
        // Multiply the remaining factors.
        let mut result = Factor::unit();
        for f in factors {
            result = result.product(&f)?;
        }
        Ok(result)
    }
}

/// Approximate posterior inference by likelihood weighting — used as an
/// independent cross-check of the exact engine in the Table I experiment.
///
/// Returns the posterior marginal of `query` given evidence, from `n`
/// weighted samples.
///
/// # Errors
///
/// Returns [`BnError::UnknownNode`] for a bad query id and
/// [`BnError::InconsistentEvidence`] when every sample has zero weight.
pub fn likelihood_weighting(
    bn: &BayesNet,
    query: usize,
    evidence: &[(usize, usize)],
    n: usize,
    rng: &mut dyn RngCore,
) -> Result<Vec<f64>> {
    use sysunc_prob::rng::Rng as _;
    if query >= bn.len() {
        return Err(BnError::UnknownNode(format!("id {query}")));
    }
    let ev: std::collections::HashMap<usize, usize> = evidence.iter().copied().collect();
    let k = bn.nodes()[query].states.len();
    let mut acc = vec![0.0; k];
    let mut total_weight = 0.0;
    let mut assignment = vec![0usize; bn.len()];
    for _ in 0..n {
        let mut weight = 1.0;
        // Nodes are stored in topological order.
        for (id, node) in bn.nodes().iter().enumerate() {
            // CPT row for the current parent assignment.
            let mut row = 0usize;
            for &p in &node.parents {
                row = row * bn.nodes()[p].states.len() + assignment[p];
            }
            let dist = &node.cpt[row];
            if let Some(&obs) = ev.get(&id) {
                assignment[id] = obs;
                weight *= dist[obs];
            } else {
                // Sample from the CPT row.
                let u: f64 = rng.random();
                let mut cum = 0.0;
                let mut chosen = dist.len() - 1;
                for (s, &p) in dist.iter().enumerate() {
                    cum += p;
                    if u < cum {
                        chosen = s;
                        break;
                    }
                }
                assignment[id] = chosen;
            }
        }
        if weight > 0.0 {
            acc[assignment[query]] += weight;
            total_weight += weight;
        }
    }
    if total_weight <= 0.0 {
        return Err(BnError::InconsistentEvidence);
    }
    Ok(acc.iter().map(|a| a / total_weight).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::rng::StdRng;
    use sysunc_prob::rng::SeedableRng;

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

    /// A 6-node chain A→B→C→D→E→F with noisy copies.
    fn chain() -> BayesNet {
        let mut bn = BayesNet::new();
        let mut prev = bn.add_root("n0", vec!["0", "1"], vec![0.7, 0.3]).unwrap();
        for i in 1..6 {
            prev = bn
                .add_node(
                    format!("n{i}"),
                    vec!["0", "1"],
                    vec![prev],
                    vec![vec![0.9, 0.1], vec![0.2, 0.8]],
                )
                .unwrap();
        }
        bn
    }

    #[test]
    fn ve_matches_brute_force_on_sprinkler() {
        let bn = sprinkler();
        // Brute-force joint.
        let mut p_rain_given_wet = [0.0; 2];
        let mut p_wet = 0.0;
        for r in 0..2 {
            for s in 0..2 {
                for w in 0..2 {
                    let pr = bn.nodes()[0].cpt[0][r];
                    let ps = bn.nodes()[1].cpt[r][s];
                    let pw = bn.nodes()[2].cpt[s * 2 + r][w];
                    let joint = pr * ps * pw;
                    if w == 0 {
                        p_wet += joint;
                        p_rain_given_wet[r] += joint;
                    }
                }
            }
        }
        for v in &mut p_rain_given_wet {
            *v /= p_wet;
        }
        let ve = VariableElimination::new(&bn);
        let wet_id = bn.node_id("grass_wet").unwrap();
        let rain_id = bn.node_id("rain").unwrap();
        let m = ve.marginal(rain_id, &[(wet_id, 0)]).unwrap();
        assert!((m[0] - p_rain_given_wet[0]).abs() < 1e-12);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ve_chain_forward_and_backward() {
        let bn = chain();
        let ve = VariableElimination::new(&bn);
        // Forward: prior of the last node via repeated matrix application.
        let mut p = [0.7, 0.3];
        for _ in 0..5 {
            p = [0.9 * p[0] + 0.2 * p[1], 0.1 * p[0] + 0.8 * p[1]];
        }
        let m = ve.marginal(5, &[]).unwrap();
        assert!((m[0] - p[0]).abs() < 1e-12);
        // Backward: conditioning the last node shifts the first.
        let m0 = ve.marginal(0, &[(5, 1)]).unwrap();
        assert!(m0[1] > 0.3, "observing a downstream 1 raises P(n0 = 1)");
    }

    #[test]
    fn joint_query() {
        let bn = sprinkler();
        let ve = VariableElimination::new(&bn);
        let j = ve.joint(&[0, 1], &[]).unwrap();
        assert!((j.total() - 1.0).abs() < 1e-12);
        // P(rain=yes, sprinkler=on) = 0.2 * 0.01.
        let idx = if j.vars() == [0, 1] { 0 } else { 0 };
        assert!((j.values()[idx] - 0.002).abs() < 1e-12);
    }

    #[test]
    fn likelihood_weighting_approximates_exact() {
        let bn = sprinkler();
        let ve = VariableElimination::new(&bn);
        let wet = bn.node_id("grass_wet").unwrap();
        let rain = bn.node_id("rain").unwrap();
        let exact = ve.marginal(rain, &[(wet, 0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let approx = likelihood_weighting(&bn, rain, &[(wet, 0)], 200_000, &mut rng).unwrap();
        assert!(
            (exact[0] - approx[0]).abs() < 0.01,
            "LW {} vs exact {}",
            approx[0],
            exact[0]
        );
    }

    #[test]
    fn evidence_probability_decomposes() {
        // P(a, b) = P(a) P(b | a) for chained evidence.
        let bn = chain();
        let ve = VariableElimination::new(&bn);
        let p_ab = ve.evidence_probability(&[(0, 0), (1, 0)]).unwrap();
        assert!((p_ab - 0.7 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn bad_query_id_errors() {
        let bn = chain();
        let ve = VariableElimination::new(&bn);
        assert!(ve.marginal(99, &[]).is_err());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(likelihood_weighting(&bn, 99, &[], 10, &mut rng).is_err());
    }
}
