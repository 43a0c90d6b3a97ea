//! Discrete factors (potentials) and their algebra — the computational
//! core of exact Bayesian-network inference.

use crate::error::{BnError, Result};

/// A factor over a set of discrete variables, identified by `usize` ids.
///
/// Values are stored row-major with the *first* variable varying slowest.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    vars: Vec<usize>,
    card: Vec<usize>,
    values: Vec<f64>,
}

impl Factor {
    /// Creates a factor.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::InvalidFactor`] when shapes disagree, a
    /// cardinality is zero, variables repeat, or a value is negative.
    pub fn new(vars: Vec<usize>, card: Vec<usize>, values: Vec<f64>) -> Result<Self> {
        if vars.len() != card.len() {
            return Err(BnError::InvalidFactor(format!(
                "{} vars but {} cardinalities",
                vars.len(),
                card.len()
            )));
        }
        let mut seen = std::collections::HashSet::new();
        if !vars.iter().all(|v| seen.insert(*v)) {
            return Err(BnError::InvalidFactor("repeated variable".into()));
        }
        if card.contains(&0) {
            return Err(BnError::InvalidFactor("zero cardinality".into()));
        }
        let size: usize = card.iter().product();
        if values.len() != size {
            return Err(BnError::InvalidFactor(format!(
                "expected {size} values, got {}",
                values.len()
            )));
        }
        if values.iter().any(|&v| v < 0.0 || !v.is_finite()) {
            return Err(BnError::InvalidFactor("negative or non-finite value".into()));
        }
        Ok(Self { vars, card, values })
    }

    /// The scalar unit factor (empty scope, value 1).
    pub fn unit() -> Self {
        Self { vars: vec![], card: vec![], values: vec![1.0] }
    }

    /// Variables in scope.
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// Cardinalities aligned with [`Factor::vars`].
    pub fn cardinalities(&self) -> &[usize] {
        &self.card
    }

    /// Raw values (row-major, first variable slowest).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Converts a flat index into a per-variable assignment.
    fn unflatten(&self, mut idx: usize) -> Vec<usize> {
        let mut asg = vec![0; self.vars.len()];
        for i in (0..self.vars.len()).rev() {
            asg[i] = idx % self.card[i];
            idx /= self.card[i];
        }
        asg
    }

    /// Converts an assignment to a flat index.
    fn flatten(card: &[usize], asg: &[usize]) -> usize {
        let mut idx = 0;
        for (c, a) in card.iter().zip(asg) {
            idx = idx * c + a;
        }
        idx
    }

    /// Factor product: the scope is the union of scopes.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::InvalidFactor`] if a shared variable has
    /// conflicting cardinalities.
    pub fn product(&self, other: &Factor) -> Result<Factor> {
        // Union scope: self vars, then other's new vars.
        let mut vars = self.vars.clone();
        let mut card = self.card.clone();
        for (v, c) in other.vars.iter().zip(&other.card) {
            match self.vars.iter().position(|sv| sv == v) {
                Some(pos) => {
                    if self.card[pos] != *c {
                        return Err(BnError::InvalidFactor(format!(
                            "variable {v} has conflicting cardinalities {} vs {c}",
                            self.card[pos]
                        )));
                    }
                }
                None => {
                    vars.push(*v);
                    card.push(*c);
                }
            }
        }
        let size: usize = card.iter().product();
        let mut values = vec![0.0; size];
        // Positions of self/other vars in the union scope.
        #[expect(
            clippy::expect_used,
            reason = "the union scope is built from both factors, so every variable is in it"
        )]
        let self_pos: Vec<usize> =
            self.vars.iter().map(|v| vars.iter().position(|u| u == v).expect("in union")).collect();
        #[expect(
            clippy::expect_used,
            reason = "the union scope is built from both factors, so every variable is in it"
        )]
        let other_pos: Vec<usize> = other
            .vars
            .iter()
            .map(|v| vars.iter().position(|u| u == v).expect("in union"))
            .collect();
        let mut asg = vec![0usize; vars.len()];
        for (flat, value) in values.iter_mut().enumerate() {
            // Unflatten into the union assignment.
            let mut idx = flat;
            for i in (0..vars.len()).rev() {
                asg[i] = idx % card[i];
                idx /= card[i];
            }
            let a_idx = Factor::flatten(
                &self.card,
                &self_pos.iter().map(|&p| asg[p]).collect::<Vec<_>>(),
            );
            let b_idx = Factor::flatten(
                &other.card,
                &other_pos.iter().map(|&p| asg[p]).collect::<Vec<_>>(),
            );
            *value = self.values[a_idx] * other.values[b_idx];
        }
        Ok(Factor { vars, card, values })
    }

    /// Sums out (marginalizes) a variable.
    ///
    /// Returns the factor unchanged if the variable is not in scope.
    pub fn sum_out(&self, var: usize) -> Factor {
        let Some(pos) = self.vars.iter().position(|v| *v == var) else {
            return self.clone();
        };
        let mut vars = self.vars.clone();
        let mut card = self.card.clone();
        vars.remove(pos);
        let k = card.remove(pos);
        let size: usize = card.iter().product::<usize>().max(1);
        let mut values = vec![0.0; size];
        for (flat, &v) in self.values.iter().enumerate() {
            let mut asg = self.unflatten(flat);
            asg.remove(pos);
            let _ = k; // cardinality folded into the sum below
            let idx = Factor::flatten(&card, &asg);
            values[idx] += v;
        }
        Factor { vars, card, values }
    }

    /// Restricts a variable to a fixed state (evidence), removing it from
    /// the scope.
    ///
    /// Returns the factor unchanged if the variable is not in scope.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::InvalidFactor`] when the state is out of range.
    pub fn reduce(&self, var: usize, state: usize) -> Result<Factor> {
        let Some(pos) = self.vars.iter().position(|v| *v == var) else {
            return Ok(self.clone());
        };
        if state >= self.card[pos] {
            return Err(BnError::InvalidFactor(format!(
                "state {state} out of range for variable {var} (cardinality {})",
                self.card[pos]
            )));
        }
        let mut vars = self.vars.clone();
        let mut card = self.card.clone();
        vars.remove(pos);
        card.remove(pos);
        let size: usize = card.iter().product::<usize>().max(1);
        let mut values = vec![0.0; size];
        for (flat, &v) in self.values.iter().enumerate() {
            let asg = self.unflatten(flat);
            if asg[pos] != state {
                continue;
            }
            let mut rest = asg;
            rest.remove(pos);
            values[Factor::flatten(&card, &rest)] = v;
        }
        Ok(Factor { vars, card, values })
    }

    /// Normalizes values to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`BnError::InconsistentEvidence`] when the total is zero
    /// (the evidence has probability zero under the model — the BN
    /// signature of an ontological event).
    pub fn normalized(&self) -> Result<Factor> {
        let total: f64 = self.values.iter().sum();
        if total <= 0.0 {
            return Err(BnError::InconsistentEvidence);
        }
        Ok(Factor {
            vars: self.vars.clone(),
            card: self.card.clone(),
            values: self.values.iter().map(|v| v / total).collect(),
        })
    }

    /// Sum of all values (the partition function / evidence probability).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Factor::new(vec![0], vec![2], vec![0.5, 0.5]).is_ok());
        assert!(Factor::new(vec![0], vec![2], vec![0.5]).is_err());
        assert!(Factor::new(vec![0, 0], vec![2, 2], vec![0.25; 4]).is_err());
        assert!(Factor::new(vec![0], vec![0], vec![]).is_err());
        assert!(Factor::new(vec![0], vec![2], vec![-0.1, 1.1]).is_err());
    }

    #[test]
    fn product_of_disjoint_scopes() {
        let a = Factor::new(vec![0], vec![2], vec![0.3, 0.7]).unwrap();
        let b = Factor::new(vec![1], vec![2], vec![0.6, 0.4]).unwrap();
        let p = a.product(&b).unwrap();
        assert_eq!(p.vars(), &[0, 1]);
        assert!((p.values()[0] - 0.18).abs() < 1e-15); // (0,0)
        assert!((p.values()[3] - 0.28).abs() < 1e-15); // (1,1)
        assert!((p.total() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn product_with_shared_variable() {
        // P(A) * P(B|A) laid out as factor over (A, B).
        let pa = Factor::new(vec![0], vec![2], vec![0.6, 0.4]).unwrap();
        let pba = Factor::new(vec![0, 1], vec![2, 2], vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        let joint = pa.product(&pba).unwrap();
        assert!((joint.values()[0] - 0.54).abs() < 1e-15);
        assert!((joint.values()[3] - 0.32).abs() < 1e-15);
        // Conflicting cardinalities.
        let bad = Factor::new(vec![0], vec![3], vec![0.2, 0.3, 0.5]).unwrap();
        assert!(pa.product(&bad).is_err());
    }

    #[test]
    fn sum_out_recovers_marginal() {
        let joint =
            Factor::new(vec![0, 1], vec![2, 2], vec![0.54, 0.06, 0.08, 0.32]).unwrap();
        let pb = joint.sum_out(0);
        assert_eq!(pb.vars(), &[1]);
        assert!((pb.values()[0] - 0.62).abs() < 1e-15);
        assert!((pb.values()[1] - 0.38).abs() < 1e-15);
        // Summing out a variable not in scope is a no-op.
        assert_eq!(joint.sum_out(9), joint);
    }

    #[test]
    fn reduce_conditions_on_evidence() {
        let joint =
            Factor::new(vec![0, 1], vec![2, 2], vec![0.54, 0.06, 0.08, 0.32]).unwrap();
        let given_b1 = joint.reduce(1, 1).unwrap();
        assert_eq!(given_b1.vars(), &[0]);
        assert!((given_b1.values()[0] - 0.06).abs() < 1e-15);
        let post = given_b1.normalized().unwrap();
        assert!((post.values()[0] - 0.06 / 0.38).abs() < 1e-12);
        assert!(joint.reduce(1, 5).is_err());
    }

    #[test]
    fn normalize_zero_factor_is_inconsistent_evidence() {
        let z = Factor::new(vec![0], vec![2], vec![0.0, 0.0]).unwrap();
        assert!(matches!(z.normalized(), Err(BnError::InconsistentEvidence)));
    }

    #[test]
    fn product_commutes_up_to_scope_order() {
        let a = Factor::new(vec![0, 1], vec![2, 3], (1..=6).map(f64::from).collect()).unwrap();
        let b = Factor::new(vec![1, 2], vec![3, 2], (1..=6).map(f64::from).collect()).unwrap();
        let ab = a.product(&b).unwrap();
        let ba = b.product(&a).unwrap();
        // Same totals and same marginal over variable 2.
        assert!((ab.total() - ba.total()).abs() < 1e-12);
        let m1 = ab.sum_out(0).sum_out(1);
        let m2 = ba.sum_out(0).sum_out(1);
        for (x, y) in m1.values().iter().zip(m2.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
