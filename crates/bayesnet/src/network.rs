//! Bayesian network structure: DAG of discrete nodes with conditional
//! probability tables — the graphical model of the paper's Fig. 4.

use crate::error::{BnError, Result};
use crate::factor::Factor;
use sysunc_prob::json::{field, obj, FromJson, Json, JsonError, ToJson};

/// A node of the network: name, state names, parents and CPT.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node name (unique in the network).
    pub name: String,
    /// State names (the node's sample space).
    pub states: Vec<String>,
    /// Parent node ids.
    pub parents: Vec<usize>,
    /// CPT rows: one row per parent-state combination (row index iterates
    /// the *last* parent fastest), each row a distribution over `states`.
    pub cpt: Vec<Vec<f64>>,
}

/// A discrete Bayesian network.
///
/// # Examples
///
/// The paper's Fig. 4 perception chain:
///
/// ```
/// use sysunc_bayesnet::BayesNet;
///
/// let mut bn = BayesNet::new();
/// let gt = bn.add_root("ground_truth", vec!["car", "pedestrian", "unknown"],
///                      vec![0.6, 0.3, 0.1])?;
/// bn.add_node("perception", vec!["car", "pedestrian", "car_pedestrian", "none"],
///             vec![gt], vec![
///     vec![0.9, 0.005, 0.05, 0.045],
///     vec![0.005, 0.9, 0.05, 0.045],
///     vec![0.0, 0.0, 2.0 / 9.0, 7.0 / 9.0], // Table I row renormalized
/// ])?;
/// let marginal = bn.marginal("perception", &[])?;
/// assert!((marginal[0] - 0.5415).abs() < 1e-12);
/// # Ok::<(), sysunc_bayesnet::BnError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BayesNet {
    nodes: Vec<Node>,
}

impl BayesNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a root (parentless) node with the given prior.
    ///
    /// # Errors
    ///
    /// See [`BayesNet::add_node`].
    pub fn add_root<S: Into<String>, T: Into<String>>(
        &mut self,
        name: S,
        states: Vec<T>,
        prior: Vec<f64>,
    ) -> Result<usize> {
        self.add_node(name, states, vec![], vec![prior])
    }

    /// Adds a node with parents and a CPT (one row per parent-state
    /// combination, last parent fastest). Returns the node id.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::InvalidNode`] for duplicate names, empty states,
    /// unknown parents (which also enforces acyclicity, since parents must
    /// already exist) or malformed CPTs.
    pub fn add_node<S: Into<String>, T: Into<String>>(
        &mut self,
        name: S,
        states: Vec<T>,
        parents: Vec<usize>,
        cpt: Vec<Vec<f64>>,
    ) -> Result<usize> {
        let name = name.into();
        let states: Vec<String> = states.into_iter().map(Into::into).collect();
        if states.is_empty() {
            return Err(BnError::InvalidNode(format!("node '{name}' has no states")));
        }
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(BnError::InvalidNode(format!("duplicate node name '{name}'")));
        }
        // Parents must already exist: insertion order is a topological
        // order, so the graph is a DAG by construction.
        for &p in &parents {
            if p >= self.nodes.len() {
                return Err(BnError::InvalidNode(format!(
                    "node '{name}': parent id {p} does not exist"
                )));
            }
        }
        let rows: usize = parents.iter().map(|&p| self.nodes[p].states.len()).product();
        if cpt.len() != rows {
            return Err(BnError::InvalidNode(format!(
                "node '{name}': expected {rows} CPT rows, got {}",
                cpt.len()
            )));
        }
        for (i, row) in cpt.iter().enumerate() {
            if row.len() != states.len() {
                return Err(BnError::InvalidNode(format!(
                    "node '{name}': CPT row {i} has {} entries, expected {}",
                    row.len(),
                    states.len()
                )));
            }
            if row.iter().any(|&p| p < 0.0 || !p.is_finite()) {
                return Err(BnError::InvalidNode(format!(
                    "node '{name}': CPT row {i} has negative entries"
                )));
            }
            let total: f64 = row.iter().sum();
            if (total - 1.0).abs() > 1e-9 {
                return Err(BnError::InvalidNode(format!(
                    "node '{name}': CPT row {i} sums to {total}, expected 1"
                )));
            }
        }
        self.nodes.push(Node { name, states, parents, cpt });
        Ok(self.nodes.len() - 1)
    }

    /// Replaces a node's CPT without re-validation (callers validate).
    pub(crate) fn set_cpt_unchecked(&mut self, node: usize, cpt: Vec<Vec<f64>>) {
        self.nodes[node].cpt = cpt;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes in insertion (topological) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node id by name.
    pub fn node_id(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// State index of a node by name.
    pub fn state_id(&self, node: usize, state: &str) -> Option<usize> {
        self.nodes.get(node)?.states.iter().position(|s| s == state)
    }

    /// The CPT of a node as a factor over `parents ∪ {node}`.
    pub(crate) fn node_factor(&self, id: usize) -> Factor {
        let node = &self.nodes[id];
        let mut vars = node.parents.clone();
        vars.push(id);
        let mut card: Vec<usize> =
            node.parents.iter().map(|&p| self.nodes[p].states.len()).collect();
        card.push(node.states.len());
        // CPT rows iterate last parent fastest — matching row-major order
        // with the node's own states innermost.
        let values: Vec<f64> = node.cpt.iter().flatten().copied().collect();
        #[expect(clippy::expect_used, reason = "CPT shapes are validated when the node is added")]
        Factor::new(vars, card, values).expect("validated at construction")
    }

    /// Resolves `(node name, state name)` pairs to ids.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::UnknownNode`] / [`BnError::UnknownState`].
    pub fn resolve_evidence(&self, evidence: &[(&str, &str)]) -> Result<Vec<(usize, usize)>> {
        evidence
            .iter()
            .map(|(node, state)| {
                let nid = self
                    .node_id(node)
                    .ok_or_else(|| BnError::UnknownNode((*node).to_string()))?;
                let sid = self
                    .state_id(nid, state)
                    .ok_or_else(|| BnError::UnknownState((*state).to_string()))?;
                Ok((nid, sid))
            })
            .collect()
    }

    /// Posterior marginal of a node given evidence, by variable
    /// elimination. Convenience wrapper around
    /// [`crate::infer::VariableElimination`].
    ///
    /// # Errors
    ///
    /// Propagates resolution and inference errors.
    pub fn marginal(&self, node: &str, evidence: &[(&str, &str)]) -> Result<Vec<f64>> {
        let nid = self.node_id(node).ok_or_else(|| BnError::UnknownNode(node.to_string()))?;
        let ev = self.resolve_evidence(evidence)?;
        crate::infer::VariableElimination::new(self).marginal(nid, &ev)
    }

    /// The probability of the evidence itself, `P(e)`.
    ///
    /// # Errors
    ///
    /// Propagates resolution and inference errors.
    /// Range: `[0, 1]` — a normalized probability of the evidence.
    pub fn evidence_probability(&self, evidence: &[(&str, &str)]) -> Result<f64> {
        let ev = self.resolve_evidence(evidence)?;
        crate::infer::VariableElimination::new(self).evidence_probability(&ev)
    }
}

impl ToJson for Node {
    fn to_json(&self) -> Json {
        let cpt: Vec<Json> = self
            .cpt
            .iter()
            .map(|row| Json::Arr(row.iter().map(|&p| Json::Num(p)).collect()))
            .collect();
        obj([
            ("name", self.name.to_json()),
            ("states", self.states.to_json()),
            ("parents", self.parents.to_json()),
            ("cpt", Json::Arr(cpt)),
        ])
    }
}

impl ToJson for BayesNet {
    fn to_json(&self) -> Json {
        obj([("nodes", self.nodes.to_json())])
    }
}

impl FromJson for BayesNet {
    /// Rebuilds the network through [`BayesNet::add_node`], so every CPT is
    /// re-validated (row counts, normalization, parent existence) on load.
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let nodes = v.get("nodes").and_then(Json::as_arr).ok_or_else(|| JsonError::missing("nodes"))?;
        let mut bn = BayesNet::new();
        for node in nodes {
            let name: String = field(node, "name")?;
            let states: Vec<String> = field(node, "states")?;
            let parents: Vec<usize> = field(node, "parents")?;
            let cpt_json = node.get("cpt").and_then(Json::as_arr).ok_or_else(|| JsonError::missing("cpt"))?;
            let cpt = cpt_json
                .iter()
                .map(Vec::<f64>::from_json)
                .collect::<std::result::Result<Vec<Vec<f64>>, JsonError>>()?;
            bn.add_node(name, states, parents, cpt)
                .map_err(|e| JsonError::decode(e.to_string()))?;
        }
        Ok(bn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook sprinkler network (Pearl).
    pub(crate) fn sprinkler() -> BayesNet {
        let mut bn = BayesNet::new();
        let rain = bn.add_root("rain", vec!["yes", "no"], vec![0.2, 0.8]).unwrap();
        let sprinkler = bn
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
            vec![sprinkler, rain],
            vec![
                vec![0.99, 0.01], // sprinkler on, rain yes
                vec![0.9, 0.1],   // on, no
                vec![0.8, 0.2],   // off, yes
                vec![0.0, 1.0],   // off, no
            ],
        )
        .unwrap();
        bn
    }

    #[test]
    fn validation_rules() {
        let mut bn = BayesNet::new();
        assert!(bn.add_root("a", vec!["x", "y"], vec![0.5, 0.6]).is_err());
        assert!(bn.add_root::<_, String>("a", vec![], vec![]).is_err());
        let a = bn.add_root("a", vec!["x", "y"], vec![0.5, 0.5]).unwrap();
        assert!(bn.add_root("a", vec!["x", "y"], vec![0.5, 0.5]).is_err()); // dup
        assert!(bn.add_node("b", vec!["u"], vec![5], vec![vec![1.0]]).is_err()); // parent
        assert!(bn.add_node("b", vec!["u", "v"], vec![a], vec![vec![1.0, 0.0]]).is_err()); // rows
        assert!(bn
            .add_node("b", vec!["u", "v"], vec![a], vec![vec![1.0, 0.0], vec![-0.5, 1.5]])
            .is_err());
    }

    #[test]
    fn sprinkler_prior_marginals() {
        let bn = sprinkler();
        // P(grass wet) = Σ P(R)P(S|R)P(W|S,R)
        // = 0.2*(0.01*0.99 + 0.99*0.8) + 0.8*(0.4*0.9 + 0.6*0.0)
        let expect = 0.2 * (0.01 * 0.99 + 0.99 * 0.8) + 0.8 * (0.4 * 0.9);
        let m = bn.marginal("grass_wet", &[]).unwrap();
        assert!((m[0] - expect).abs() < 1e-12, "{} vs {expect}", m[0]);
    }

    #[test]
    fn sprinkler_posterior_explaining_away() {
        let bn = sprinkler();
        // Classic check: P(rain | grass wet) and explaining away by the
        // sprinkler.
        let p_rain_wet = bn.marginal("rain", &[("grass_wet", "yes")]).unwrap()[0];
        assert!(p_rain_wet > 0.2, "wet grass raises rain belief");
        let p_rain_wet_sprinkler =
            bn.marginal("rain", &[("grass_wet", "yes"), ("sprinkler", "on")]).unwrap()[0];
        assert!(
            p_rain_wet_sprinkler < p_rain_wet,
            "knowing the sprinkler was on explains the wet grass away"
        );
    }

    #[test]
    fn evidence_probability() {
        let bn = sprinkler();
        let p = bn.evidence_probability(&[("rain", "yes")]).unwrap();
        assert!((p - 0.2).abs() < 1e-12);
        let p_all = bn.evidence_probability(&[]).unwrap();
        assert!((p_all - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_names_error() {
        let bn = sprinkler();
        assert!(matches!(bn.marginal("nothere", &[]), Err(BnError::UnknownNode(_))));
        assert!(matches!(
            bn.marginal("rain", &[("rain", "maybe")]),
            Err(BnError::UnknownState(_))
        ));
    }

    #[test]
    fn impossible_evidence_is_flagged() {
        let mut bn = BayesNet::new();
        let a = bn.add_root("a", vec!["x", "y"], vec![1.0, 0.0]).unwrap();
        bn.add_node(
            "b",
            vec!["u", "v"],
            vec![a],
            vec![vec![1.0, 0.0], vec![0.5, 0.5]],
        )
        .unwrap();
        // b = v is impossible: requires a = y which has prior 0.
        assert!(matches!(
            bn.marginal("a", &[("b", "v")]),
            Err(BnError::InconsistentEvidence)
        ));
    }
}
