//! Input specifications pairing physical distributions with their
//! Wiener–Askey germ (orthogonal polynomial family).

use sysunc_algebra::PolyFamily;
use sysunc_prob::special::{inverse_standard_normal_cdf, IncompleteBeta};

/// A physical input random variable paired with its polynomial-chaos germ.
///
/// Each variant defines (a) which orthogonal family spans its chaos, (b)
/// the affine/monotone map from the *germ* variable `ξ` (distributed per
/// the family's reference measure) to the physical variable `x`, and (c)
/// the germ quantile function used for regression sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PceInput {
    /// `X ~ N(mu, sigma²)`, Hermite germ `ξ ~ N(0, 1)`, `x = mu + sigma ξ`.
    Normal {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// `X ~ U(a, b)`, Legendre germ `ξ ~ U(-1, 1)`, `x = a + (b-a)(ξ+1)/2`.
    Uniform {
        /// Lower bound.
        a: f64,
        /// Upper bound.
        b: f64,
    },
    /// `X ~ Exp(rate)`, Laguerre germ `ξ ~ Exp(1)`, `x = ξ / rate`.
    Exponential {
        /// Rate parameter.
        rate: f64,
    },
    /// `X ~ Beta(alpha, beta)` on `[0, 1]`, Jacobi germ on `[-1, 1]`,
    /// `x = (ξ + 1) / 2`.
    Beta {
        /// First Beta shape.
        alpha: f64,
        /// Second Beta shape.
        beta: f64,
    },
}

impl PceInput {
    /// The orthogonal polynomial family of the germ.
    pub fn family(&self) -> PolyFamily {
        match *self {
            PceInput::Normal { .. } => PolyFamily::Hermite,
            PceInput::Uniform { .. } => PolyFamily::Legendre,
            PceInput::Exponential { .. } => PolyFamily::Laguerre,
            // Beta(a, b) with density ∝ u^{a-1}(1-u)^{b-1} on [0,1] maps to
            // the Jacobi weight (1-x)^{b-1} (1+x)^{a-1} on [-1,1].
            PceInput::Beta { alpha, beta } => {
                PolyFamily::Jacobi { alpha: beta - 1.0, beta: alpha - 1.0 }
            }
        }
    }

    /// Maps a germ realization `ξ` to the physical variable.
    pub fn to_physical(&self, xi: f64) -> f64 {
        match *self {
            PceInput::Normal { mu, sigma } => mu + sigma * xi,
            PceInput::Uniform { a, b } => a + (b - a) * (xi + 1.0) / 2.0,
            PceInput::Exponential { rate } => xi / rate,
            PceInput::Beta { .. } => (xi + 1.0) / 2.0,
        }
    }

    /// Germ quantile function: maps `u ∈ (0, 1)` to a germ realization.
    ///
    /// Used to turn unit-hypercube designs into germ-space samples for
    /// regression fitting.
    pub fn germ_quantile(&self, u: f64) -> f64 {
        match *self {
            PceInput::Normal { .. } => inverse_standard_normal_cdf(u),
            PceInput::Uniform { .. } => 2.0 * u - 1.0,
            PceInput::Exponential { .. } => -(-u).ln_1p(),
            PceInput::Beta { alpha, beta } => beta_germ(&IncompleteBeta::new(alpha, beta), u),
        }
    }

    /// `germ_quantile(u.clamp(1e-12, 1 − 1e-12))` for every `u`, into
    /// `out`: the map [`crate::ChaosExpansion::eval_u`] applies. A Beta
    /// input computes `ln B` once for the whole slice.
    pub(crate) fn germ_fill(&self, u: &[f64], out: &mut [f64]) {
        let clamp = |u: f64| u.clamp(1e-12, 1.0 - 1e-12);
        if let PceInput::Beta { alpha, beta } = *self {
            let inc = IncompleteBeta::new(alpha, beta);
            for (xi, &u) in out.iter_mut().zip(u) {
                *xi = beta_germ(&inc, clamp(u));
            }
        } else {
            for (xi, &u) in out.iter_mut().zip(u) {
                *xi = self.germ_quantile(clamp(u));
            }
        }
    }

    /// Mean of the physical variable (for validation).
    pub fn physical_mean(&self) -> f64 {
        match *self {
            PceInput::Normal { mu, .. } => mu,
            PceInput::Uniform { a, b } => 0.5 * (a + b),
            PceInput::Exponential { rate } => 1.0 / rate,
            PceInput::Beta { alpha, beta } => alpha / (alpha + beta),
        }
    }
}

/// The Jacobi germ of a Beta input at level `u`: its quantile mapped to
/// `[-1, 1]`.
fn beta_germ(inc: &IncompleteBeta, u: f64) -> f64 {
    2.0 * inc.inverse(u) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn germ_quantile_medians() {
        let n = PceInput::Normal { mu: 3.0, sigma: 2.0 };
        assert!((n.germ_quantile(0.5)).abs() < 1e-12);
        assert!((n.to_physical(n.germ_quantile(0.5)) - 3.0).abs() < 1e-12);
        let u = PceInput::Uniform { a: 0.0, b: 10.0 };
        assert!((u.to_physical(u.germ_quantile(0.25)) - 2.5).abs() < 1e-12);
        let e = PceInput::Exponential { rate: 2.0 };
        assert!((e.to_physical(e.germ_quantile(0.5)) - std::f64::consts::LN_2 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn beta_germ_consistency() {
        // Beta(2, 5): germ quantile mapped to physical must match the Beta
        // quantile directly.
        let input = PceInput::Beta { alpha: 2.0, beta: 5.0 };
        for &u in &[0.1, 0.5, 0.9] {
            let phys = input.to_physical(input.germ_quantile(u));
            let direct = sysunc_prob::special::inv_reg_inc_beta(2.0, 5.0, u);
            assert!((phys - direct).abs() < 1e-10);
        }
    }

    #[test]
    fn germ_measure_matches_family_rule() {
        // E[to_physical(ξ)] under the family's Gauss rule must equal the
        // physical mean — verifies the germ/family pairing.
        let inputs = [
            PceInput::Normal { mu: 1.5, sigma: 0.7 },
            PceInput::Uniform { a: -2.0, b: 4.0 },
            PceInput::Exponential { rate: 3.0 },
            PceInput::Beta { alpha: 2.0, beta: 3.0 },
        ];
        for input in inputs {
            let rule = input.family().gauss_rule(16).unwrap();
            let mean = rule.integrate(|xi| input.to_physical(xi));
            assert!(
                (mean - input.physical_mean()).abs() < 1e-8,
                "{input:?}: {mean} vs {}",
                input.physical_mean()
            );
        }
    }
}
