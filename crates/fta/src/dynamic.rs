//! Dynamic fault trees (Dugan et al., the paper's reference \[33\]):
//! sequence-dependent gates quantified by Monte Carlo simulation of
//! component failure timelines.

use crate::error::{FtaError, Result};
use sysunc_prob::rng::RngCore;
use std::sync::Arc;
use sysunc_prob::dist::Continuous;
use sysunc_prob::stats::RunningStats;

/// Reference to a node of a dynamic fault tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynRef {
    /// A timed basic event by index.
    Basic(usize),
    /// A dynamic gate by index.
    Gate(usize),
}

/// Dynamic gate semantics over failure *times*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynGateKind {
    /// Fails when all inputs have failed (time = max).
    And,
    /// Fails when any input fails (time = min).
    Or,
    /// Priority-AND: fails at the last input's failure time, but only if
    /// inputs fail in left-to-right order; otherwise never.
    PriorityAnd,
    /// Cold spare: the first input is primary; each further input starts
    /// (cold) when its predecessor fails. Fails when the last spare fails
    /// (times accumulate).
    ColdSpare,
    /// Functional dependency: the first input is the trigger; the gate
    /// fails when the trigger fails OR all dependent inputs fail. (The
    /// trigger's failure instantly fails all dependents.)
    FunctionalDependency,
}

/// A timed basic event with a lifetime distribution.
#[derive(Clone)]
pub struct TimedEvent {
    /// Event name.
    pub name: String,
    /// Time-to-failure distribution.
    pub lifetime: Arc<dyn Continuous>,
}

impl std::fmt::Debug for TimedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedEvent").field("name", &self.name).finish_non_exhaustive()
    }
}

/// A dynamic gate.
#[derive(Debug, Clone)]
pub struct DynGate {
    /// Gate name.
    pub name: String,
    /// Semantics.
    pub kind: DynGateKind,
    /// Ordered inputs (order matters for PAND / SPARE / FDEP).
    pub inputs: Vec<DynRef>,
}

/// A dynamic fault tree over timed basic events.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sysunc_prob::rng::SeedableRng;
/// use sysunc_fta::{DynGateKind, DynamicFaultTree};
/// use sysunc_prob::dist::Exponential;
///
/// let mut dft = DynamicFaultTree::new();
/// let a = dft.add_event("primary", Arc::new(Exponential::new(1.0)?));
/// let b = dft.add_event("spare", Arc::new(Exponential::new(1.0)?));
/// let top = dft.add_gate("spare pair", DynGateKind::ColdSpare, vec![a, b])?;
/// dft.set_top(top)?;
/// let mut rng = sysunc_prob::rng::StdRng::seed_from_u64(5);
/// let u = dft.unreliability(1.0, 20_000, &mut rng)?;
/// // Cold spare: T = T1 + T2 ~ Erlang(2): F(1) = 1 - 2e^{-1} ≈ 0.264.
/// assert!((u.mean() - 0.2642).abs() < 0.02);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicFaultTree {
    events: Vec<TimedEvent>,
    gates: Vec<DynGate>,
    top: Option<DynRef>,
}

impl DynamicFaultTree {
    /// Creates an empty dynamic fault tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a timed basic event.
    pub fn add_event<S: Into<String>>(&mut self, name: S, lifetime: Arc<dyn Continuous>) -> DynRef {
        self.events.push(TimedEvent { name: name.into(), lifetime });
        DynRef::Basic(self.events.len() - 1)
    }

    /// Adds a dynamic gate over existing nodes.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::InvalidGate`] for empty inputs, dangling
    /// references, or gates whose kind needs at least two inputs.
    pub fn add_gate<S: Into<String>>(
        &mut self,
        name: S,
        kind: DynGateKind,
        inputs: Vec<DynRef>,
    ) -> Result<DynRef> {
        let name = name.into();
        if inputs.is_empty() {
            return Err(FtaError::InvalidGate(format!("gate '{name}' has no inputs")));
        }
        if matches!(
            kind,
            DynGateKind::PriorityAnd | DynGateKind::ColdSpare | DynGateKind::FunctionalDependency
        ) && inputs.len() < 2
        {
            return Err(FtaError::InvalidGate(format!(
                "gate '{name}' needs at least two inputs"
            )));
        }
        for input in &inputs {
            if !self.node_exists(*input) {
                return Err(FtaError::InvalidGate(format!(
                    "gate '{name}' references a missing node"
                )));
            }
        }
        self.gates.push(DynGate { name, kind, inputs });
        Ok(DynRef::Gate(self.gates.len() - 1))
    }

    /// Sets the top event.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::InvalidGate`] for dangling references.
    pub fn set_top(&mut self, node: DynRef) -> Result<()> {
        if !self.node_exists(node) {
            return Err(FtaError::InvalidGate("top references a missing node".into()));
        }
        self.top = Some(node);
        Ok(())
    }

    fn node_exists(&self, node: DynRef) -> bool {
        match node {
            DynRef::Basic(i) => i < self.events.len(),
            DynRef::Gate(i) => i < self.gates.len(),
        }
    }

    /// Timed basic events.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Samples one top-event failure time (possibly `+inf` for PAND gates
    /// whose ordering condition never holds).
    fn sample_top_time(&self, rng: &mut dyn RngCore) -> Result<f64> {
        let top = self.top.ok_or(FtaError::NoTopEvent)?;
        let times: Vec<f64> = self.events.iter().map(|e| e.lifetime.sample(rng)).collect();
        Ok(self.node_time(top, &times, rng))
    }

    fn node_time(&self, node: DynRef, times: &[f64], rng: &mut dyn RngCore) -> f64 {
        match node {
            DynRef::Basic(i) => times[i],
            DynRef::Gate(g) => {
                let gate = &self.gates[g];
                let input_times: Vec<f64> =
                    gate.inputs.iter().map(|&c| self.node_time(c, times, rng)).collect();
                match gate.kind {
                    DynGateKind::Or => input_times.iter().copied().fold(f64::INFINITY, f64::min),
                    DynGateKind::And => {
                        input_times.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                    }
                    DynGateKind::PriorityAnd => {
                        let ordered = input_times.windows(2).all(|w| w[0] <= w[1]);
                        if ordered {
                            #[expect(
                                clippy::expect_used,
                                reason = "a dynamic gate has at least one input"
                            )]
                            *input_times.last().expect("non-empty inputs")
                        } else {
                            f64::INFINITY
                        }
                    }
                    DynGateKind::ColdSpare => {
                        // Cold spares accumulate: each successor only starts
                        // aging when its predecessor dies. Fresh lifetimes
                        // are drawn for spares at activation (cold).
                        let mut t = input_times[0];
                        for input in &gate.inputs[1..] {
                            let spare_life = match *input {
                                DynRef::Basic(i) => self.events[i].lifetime.sample(rng),
                                DynRef::Gate(_) => self.node_time(*input, times, rng),
                            };
                            t += spare_life;
                        }
                        t
                    }
                    DynGateKind::FunctionalDependency => {
                        let trigger = input_times[0];
                        let dependents =
                            input_times[1..].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        trigger.min(dependents)
                    }
                }
            }
        }
    }

    /// Estimates the unreliability `P(T_top <= mission_time)` with `n`
    /// Monte Carlo trials; returns the indicator statistics (mean =
    /// probability estimate).
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::NoTopEvent`] when no top is set or
    /// [`FtaError::InvalidEvent`] for `n == 0`.
    pub fn unreliability(
        &self,
        mission_time: f64,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> Result<RunningStats> {
        if n == 0 {
            return Err(FtaError::InvalidEvent("n must be > 0".into()));
        }
        let mut stats = RunningStats::new();
        for _ in 0..n {
            let t = self.sample_top_time(rng)?;
            stats.push(if t <= mission_time { 1.0 } else { 0.0 });
        }
        Ok(stats)
    }

    /// Estimates the mean time to failure over `n` trials, ignoring
    /// non-failing (infinite-time) samples; returns `(mttf_stats,
    /// fraction_failing)`.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicFaultTree::unreliability`].
    pub fn mean_time_to_failure(
        &self,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> Result<(RunningStats, f64)> {
        if n == 0 {
            return Err(FtaError::InvalidEvent("n must be > 0".into()));
        }
        let mut stats = RunningStats::new();
        let mut finite = 0usize;
        for _ in 0..n {
            let t = self.sample_top_time(rng)?;
            if t.is_finite() {
                stats.push(t);
                finite += 1;
            }
        }
        Ok((stats, finite as f64 / n as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::rng::StdRng;
    use sysunc_prob::rng::SeedableRng;
    use sysunc_prob::dist::Exponential;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(4242)
    }

    fn expo(rate: f64) -> Arc<dyn Continuous> {
        Arc::new(Exponential::new(rate).unwrap())
    }

    #[test]
    fn or_gate_matches_min_of_exponentials() {
        // min(Exp(1), Exp(2)) ~ Exp(3).
        let mut dft = DynamicFaultTree::new();
        let a = dft.add_event("a", expo(1.0));
        let b = dft.add_event("b", expo(2.0));
        let top = dft.add_gate("or", DynGateKind::Or, vec![a, b]).unwrap();
        dft.set_top(top).unwrap();
        let u = dft.unreliability(0.5, 100_000, &mut rng()).unwrap();
        let expect = 1.0 - (-1.5f64).exp();
        assert!((u.mean() - expect).abs() < 0.01, "{} vs {expect}", u.mean());
    }

    #[test]
    fn and_gate_matches_max_distribution() {
        // P(max(T1, T2) <= t) = (1 - e^-t)² for two Exp(1).
        let mut dft = DynamicFaultTree::new();
        let a = dft.add_event("a", expo(1.0));
        let b = dft.add_event("b", expo(1.0));
        let top = dft.add_gate("and", DynGateKind::And, vec![a, b]).unwrap();
        dft.set_top(top).unwrap();
        let u = dft.unreliability(1.0, 100_000, &mut rng()).unwrap();
        let expect = (1.0 - (-1.0f64).exp()).powi(2);
        assert!((u.mean() - expect).abs() < 0.01);
    }

    #[test]
    fn pand_is_half_of_and_for_iid_inputs() {
        // For iid inputs, the ordering A-before-B holds with probability
        // 1/2, so PAND unreliability at t -> infinity tends to 1/2.
        let mut dft = DynamicFaultTree::new();
        let a = dft.add_event("a", expo(1.0));
        let b = dft.add_event("b", expo(1.0));
        let top = dft.add_gate("pand", DynGateKind::PriorityAnd, vec![a, b]).unwrap();
        dft.set_top(top).unwrap();
        let u = dft.unreliability(50.0, 100_000, &mut rng()).unwrap();
        assert!((u.mean() - 0.5).abs() < 0.01, "{}", u.mean());
    }

    #[test]
    fn cold_spare_beats_hot_redundancy() {
        // Cold spare T1+T2 stochastically dominates max(T1, T2): lower
        // unreliability at any mission time.
        let mission = 1.5;
        let mut cold = DynamicFaultTree::new();
        let a = cold.add_event("a", expo(1.0));
        let b = cold.add_event("b", expo(1.0));
        let top = cold.add_gate("csp", DynGateKind::ColdSpare, vec![a, b]).unwrap();
        cold.set_top(top).unwrap();
        let mut hot = DynamicFaultTree::new();
        let c = hot.add_event("a", expo(1.0));
        let d = hot.add_event("b", expo(1.0));
        let t2 = hot.add_gate("and", DynGateKind::And, vec![c, d]).unwrap();
        hot.set_top(t2).unwrap();
        let uc = cold.unreliability(mission, 100_000, &mut rng()).unwrap().mean();
        let uh = hot.unreliability(mission, 100_000, &mut rng()).unwrap().mean();
        assert!(uc < uh, "cold spare {uc} should beat hot pair {uh}");
        // Erlang(2) CDF at 1.5: 1 - e^-1.5 (1 + 1.5).
        let expect = 1.0 - (-1.5f64).exp() * 2.5;
        assert!((uc - expect).abs() < 0.01);
    }

    #[test]
    fn fdep_trigger_fails_dependents() {
        // FDEP(trigger, dep): fails at min(trigger, dep).
        let mut dft = DynamicFaultTree::new();
        let t = dft.add_event("trigger", expo(5.0));
        let d = dft.add_event("dep", expo(0.1));
        let top =
            dft.add_gate("fdep", DynGateKind::FunctionalDependency, vec![t, d]).unwrap();
        dft.set_top(top).unwrap();
        // Dominated by the fast trigger: ~ Exp(5.1).
        let u = dft.unreliability(0.2, 100_000, &mut rng()).unwrap();
        let expect = 1.0 - (-0.2 * 5.1f64).exp();
        assert!((u.mean() - expect).abs() < 0.01);
    }

    #[test]
    fn mttf_of_cold_spare_pair() {
        let mut dft = DynamicFaultTree::new();
        let a = dft.add_event("a", expo(2.0));
        let b = dft.add_event("b", expo(2.0));
        let top = dft.add_gate("csp", DynGateKind::ColdSpare, vec![a, b]).unwrap();
        dft.set_top(top).unwrap();
        let (mttf, frac) = dft.mean_time_to_failure(100_000, &mut rng()).unwrap();
        assert_eq!(frac, 1.0);
        assert!((mttf.mean() - 1.0).abs() < 0.02); // 2 × (1/2)
    }

    #[test]
    fn validation() {
        let mut dft = DynamicFaultTree::new();
        let a = dft.add_event("a", expo(1.0));
        assert!(dft.add_gate("g", DynGateKind::And, vec![]).is_err());
        assert!(dft.add_gate("g", DynGateKind::PriorityAnd, vec![a]).is_err());
        assert!(dft
            .add_gate("g", DynGateKind::And, vec![DynRef::Basic(9)])
            .is_err());
        assert!(dft.set_top(DynRef::Gate(0)).is_err());
        assert!(dft.unreliability(1.0, 100, &mut rng()).is_err()); // no top
        dft.set_top(a).unwrap();
        assert!(dft.unreliability(1.0, 0, &mut rng()).is_err());
    }
}
