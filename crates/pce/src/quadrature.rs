//! Multivariate quadrature: full tensor grids and Smolyak sparse grids.

use crate::error::{PceError, Result};
use std::collections::HashMap;
use sysunc_algebra::PolyFamily;

/// A multivariate quadrature grid in germ space: nodes (one coordinate per
/// input dimension) and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Quadrature nodes.
    pub nodes: Vec<Vec<f64>>,
    /// Weights aligned with `nodes` (sum to 1 for probability measures,
    /// within round-off; Smolyak weights may be negative).
    pub weights: Vec<f64>,
}

impl Grid {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the grid is empty (never true for constructed grids).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Applies the grid to a function of the germ vector.
    pub fn integrate<F: FnMut(&[f64]) -> f64>(&self, mut f: F) -> f64 {
        self.nodes.iter().zip(&self.weights).map(|(x, &w)| w * f(x)).sum()
    }
}

/// Full tensor-product Gauss grid: `points_per_dim^d` nodes.
///
/// # Errors
///
/// Returns [`PceError::InvalidSpec`] for empty families or zero points, and
/// propagates quadrature-rule failures.
pub fn tensor_grid(families: &[PolyFamily], points_per_dim: usize) -> Result<Grid> {
    if families.is_empty() || points_per_dim == 0 {
        return Err(PceError::InvalidSpec(
            "tensor_grid needs at least one family and one point".into(),
        ));
    }
    let rules: Vec<_> = families
        .iter()
        .map(|f| f.gauss_rule(points_per_dim))
        .collect::<std::result::Result<_, _>>()?;
    let dim = families.len();
    let total: usize = rules.iter().map(|r| r.len()).product();
    let mut nodes = Vec::with_capacity(total);
    let mut weights = Vec::with_capacity(total);
    let mut idx = vec![0usize; dim];
    loop {
        let mut node = Vec::with_capacity(dim);
        let mut w = 1.0;
        for (d, &i) in idx.iter().enumerate() {
            node.push(rules[d].nodes[i]);
            w *= rules[d].weights[i];
        }
        nodes.push(node);
        weights.push(w);
        // Odometer increment.
        let mut d = 0;
        loop {
            if d == dim {
                return Ok(Grid { nodes, weights });
            }
            idx[d] += 1;
            if idx[d] < rules[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

/// Smolyak sparse grid of the given `level` (level 1 = single-point rule),
/// using Gauss rules with `k` points at 1-D level `k` and the combination
/// technique. Nodes shared between component grids are merged.
///
/// Cost grows like `O(2^level · level^{d-1})` instead of the tensor
/// `O(level^d)`.
///
/// # Errors
///
/// Returns [`PceError::InvalidSpec`] for empty families or `level == 0`.
pub fn sparse_grid(families: &[PolyFamily], level: usize) -> Result<Grid> {
    if families.is_empty() || level == 0 {
        return Err(PceError::InvalidSpec(
            "sparse_grid needs at least one family and level >= 1".into(),
        ));
    }
    let d = families.len();
    let q = level + d - 1; // |k| ranges over q-d+1 ..= q with k_i >= 1
    let mut merged: HashMap<Vec<i64>, (Vec<f64>, f64)> = HashMap::new();
    let low = q.saturating_sub(d) + 1;
    for total in low..=q {
        // Combination coefficient (-1)^{q - total} C(d-1, q - total).
        let diff = q - total;
        if diff > d - 1 {
            continue;
        }
        let coeff = (if diff.is_multiple_of(2) { 1.0 } else { -1.0 }) * binomial(d - 1, diff) as f64;
        // Enumerate k with k_i >= 1 and |k| = total.
        let mut k = vec![1usize; d];
        enumerate_compositions(total, d, &mut k, 0, &mut |k| {
            #[expect(
                clippy::expect_used,
                reason = "compositions keep every k_i >= 1, a valid Gauss rule size"
            )]
            let rules: Vec<_> = families
                .iter()
                .zip(k)
                .map(|(f, &ki)| f.gauss_rule(ki).expect("ki >= 1"))
                .collect();
            // Tensor over this component grid.
            let mut idx = vec![0usize; d];
            loop {
                let mut node = Vec::with_capacity(d);
                let mut w = coeff;
                for (dd, &i) in idx.iter().enumerate() {
                    node.push(rules[dd].nodes[i]);
                    w *= rules[dd].weights[i];
                }
                let key: Vec<i64> = node.iter().map(|&x| (x * 1e10).round() as i64).collect();
                merged
                    .entry(key)
                    .and_modify(|(_, wt)| *wt += w)
                    .or_insert((node, w));
                let mut dd = 0;
                loop {
                    if dd == d {
                        return;
                    }
                    idx[dd] += 1;
                    if idx[dd] < rules[dd].len() {
                        break;
                    }
                    idx[dd] = 0;
                    dd += 1;
                }
            }
        });
    }
    let mut nodes = Vec::with_capacity(merged.len());
    let mut weights = Vec::with_capacity(merged.len());
    for (_, (node, w)) in merged {
        if w.abs() > 1e-14 {
            nodes.push(node);
            weights.push(w);
        }
    }
    Ok(Grid { nodes, weights })
}

/// Enumerates all `k ∈ ℕ^d` with `k_i >= 1` and `Σ k_i = total`.
fn enumerate_compositions(
    total: usize,
    d: usize,
    buf: &mut Vec<usize>,
    pos: usize,
    f: &mut impl FnMut(&Vec<usize>),
) {
    if pos == d - 1 {
        let remaining = total - buf[..pos].iter().sum::<usize>();
        if remaining >= 1 {
            buf[pos] = remaining;
            f(buf);
        }
        return;
    }
    let used: usize = buf[..pos].iter().sum();
    let max = total - used - (d - pos - 1); // leave >= 1 for the rest
    for v in 1..=max {
        buf[pos] = v;
        enumerate_compositions(total, d, buf, pos + 1, f);
    }
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut r = 1usize;
    for i in 1..=k {
        r = r * (n - k + i) / i;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_grid_size_and_weight_sum() {
        let fams = [PolyFamily::Hermite, PolyFamily::Legendre];
        let g = tensor_grid(&fams, 4).unwrap();
        assert_eq!(g.len(), 16);
        assert!((g.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(tensor_grid(&[], 4).is_err());
        assert!(tensor_grid(&fams, 0).is_err());
    }

    #[test]
    fn tensor_grid_integrates_separable_polynomials() {
        let fams = [PolyFamily::Hermite, PolyFamily::Hermite];
        let g = tensor_grid(&fams, 5).unwrap();
        // E[x² y⁴] = 1 * 3 for independent standard normals.
        let v = g.integrate(|p| p[0] * p[0] * p[1].powi(4));
        assert!((v - 3.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn sparse_grid_weights_sum_to_one() {
        let fams = [PolyFamily::Legendre; 3];
        let g = sparse_grid(&fams, 4).unwrap();
        assert!((g.weights.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(sparse_grid(&fams, 0).is_err());
    }

    #[test]
    fn sparse_grid_is_smaller_than_tensor() {
        let fams = [PolyFamily::Legendre; 5];
        let sparse = sparse_grid(&fams, 4).unwrap();
        let tensor = tensor_grid(&fams, 4).unwrap();
        assert!(
            sparse.len() < tensor.len() / 2,
            "sparse {} vs tensor {}",
            sparse.len(),
            tensor.len()
        );
    }

    #[test]
    fn sparse_grid_exact_for_low_order_polynomials() {
        // Smolyak level l is exact for total degree 2l - 1.
        let fams = [PolyFamily::Legendre; 3];
        let g = sparse_grid(&fams, 3).unwrap();
        // E[x²] = 1/3 per dim; E[x1² x2²] needs mixed order 4 — level 3
        // handles total degree 5.
        let v1 = g.integrate(|p| p[0] * p[0]);
        assert!((v1 - 1.0 / 3.0).abs() < 1e-10, "{v1}");
        let v2 = g.integrate(|p| p[0] * p[0] * p[1] * p[1]);
        assert!((v2 - 1.0 / 9.0).abs() < 1e-10, "{v2}");
    }

    #[test]
    fn sparse_grid_smooth_function_accuracy_improves_with_level() {
        let fams = [PolyFamily::Legendre; 2];
        // E[cos(x + y)] over U(-1,1)²  = sin(1)² (product of sin(1)/1 per dim
        // with cos expansion: E[cos(x+y)] = E[cos x cos y] - E[sin x sin y]
        // = sin(1)² - 0).
        let truth = 1.0f64.sin().powi(2);
        let mut prev = f64::INFINITY;
        for level in 2..7 {
            let g = sparse_grid(&fams, level).unwrap();
            let err = (g.integrate(|p| (p[0] + p[1]).cos()) - truth).abs();
            assert!(err < prev.max(1e-14), "level {level}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 1e-8);
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(3, 5), 0);
    }
}
