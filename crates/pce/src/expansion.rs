//! Polynomial chaos expansions: construction (projection and regression)
//! and post-processing (moments, Sobol' sensitivity indices).

use crate::error::{PceError, Result};
use crate::input::PceInput;
use crate::multiindex::{total_degree_set, MultiIndex};
use crate::quadrature::{sparse_grid, tensor_grid};
use sysunc_prob::rng::RngCore;
use sysunc_algebra::{lstsq, Matrix, OrthonormalStep, PolyFamily};
use sysunc_sampling::{Design, LatinHypercubeDesign};

/// A fitted polynomial chaos expansion
/// `Y ≈ Σ_α c_α Ψ_α(ξ)` over orthonormal multivariate polynomials of the
/// germ vector `ξ`.
///
/// Because the basis is orthonormal, the mean is `c_0`, the variance is
/// `Σ_{α≠0} c_α²`, and Sobol' sensitivity indices are partial sums of
/// squared coefficients — uncertainty *forecasting* for free once the
/// expansion is built.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosExpansion {
    inputs: Vec<PceInput>,
    indices: Vec<MultiIndex>,
    coefficients: Vec<f64>,
    /// Number of model evaluations spent building the expansion.
    evaluations: usize,
    /// Highest total degree of the basis.
    degree: usize,
    /// Per input, the `degree` steps of its orthonormal recurrence.
    steps: Vec<Vec<OrthonormalStep>>,
}

/// Rows per block of [`ChaosExpansion::eval_u_batch`]'s basis tables.
const BLOCK: usize = 64;

impl ChaosExpansion {
    /// Assembles a fitted expansion and computes its recurrence steps.
    fn assemble(
        inputs: &[PceInput],
        indices: Vec<MultiIndex>,
        coefficients: Vec<f64>,
        evaluations: usize,
    ) -> Self {
        let degree = indices.iter().map(|a| a.iter().sum::<usize>()).max().unwrap_or(0);
        let steps = inputs
            .iter()
            .map(|inp| {
                let family = inp.family();
                (0..degree).map(|k| family.orthonormal_step(k)).collect()
            })
            .collect();
        Self { inputs: inputs.to_vec(), indices, coefficients, evaluations, degree, steps }
    }

    /// Fits by spectral projection on a full tensor Gauss grid with
    /// `degree + 1` points per dimension (exact for polynomial models up to
    /// `degree`).
    ///
    /// The model is evaluated in *physical* space: the germ nodes are mapped
    /// through each input's transform before the call.
    ///
    /// # Errors
    ///
    /// Returns [`PceError::InvalidSpec`] for empty inputs and propagates
    /// quadrature failures.
    pub fn fit_projection<F: FnMut(&[f64]) -> f64>(
        inputs: &[PceInput],
        degree: usize,
        mut model: F,
    ) -> Result<Self> {
        if inputs.is_empty() {
            return Err(PceError::InvalidSpec("at least one input required".into()));
        }
        let families: Vec<PolyFamily> = inputs.iter().map(|i| i.family()).collect();
        let grid = tensor_grid(&families, degree + 1)?;
        Self::project_on_grid(inputs, degree, &grid.nodes, &grid.weights, &mut model)
    }

    /// Fits by spectral projection on a Smolyak sparse grid of the given
    /// level — far fewer model evaluations in higher dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`PceError::InvalidSpec`] for empty inputs or zero level.
    pub fn fit_sparse_projection<F: FnMut(&[f64]) -> f64>(
        inputs: &[PceInput],
        degree: usize,
        level: usize,
        mut model: F,
    ) -> Result<Self> {
        if inputs.is_empty() {
            return Err(PceError::InvalidSpec("at least one input required".into()));
        }
        let families: Vec<PolyFamily> = inputs.iter().map(|i| i.family()).collect();
        let grid = sparse_grid(&families, level)?;
        Self::project_on_grid(inputs, degree, &grid.nodes, &grid.weights, &mut model)
    }

    fn project_on_grid<F: FnMut(&[f64]) -> f64>(
        inputs: &[PceInput],
        degree: usize,
        nodes: &[Vec<f64>],
        weights: &[f64],
        model: &mut F,
    ) -> Result<Self> {
        let dim = inputs.len();
        let indices = total_degree_set(dim, degree);
        let mut coefficients = vec![0.0; indices.len()];
        let families: Vec<PolyFamily> = inputs.iter().map(|i| i.family()).collect();
        for (node, &w) in nodes.iter().zip(weights) {
            let x: Vec<f64> =
                node.iter().zip(inputs).map(|(&xi, inp)| inp.to_physical(xi)).collect();
            let y = model(&x);
            // Evaluate all univariate polynomials once per node.
            let uni: Vec<Vec<f64>> = families
                .iter()
                .zip(node)
                .map(|(f, &xi)| f.eval_orthonormal(degree, xi))
                .collect();
            for (c, alpha) in coefficients.iter_mut().zip(&indices) {
                let psi: f64 = alpha.iter().enumerate().map(|(d, &a)| uni[d][a]).product();
                *c += w * y * psi;
            }
        }
        Ok(Self::assemble(inputs, indices, coefficients, nodes.len()))
    }

    /// Fits by ordinary least-squares regression on `n` Latin-hypercube
    /// germ samples (`n` should be 2–3× the basis size).
    ///
    /// # Errors
    ///
    /// Returns [`PceError::InvalidSpec`] when `n` is smaller than the basis
    /// size, and propagates design/linear-algebra failures.
    pub fn fit_regression<F: FnMut(&[f64]) -> f64>(
        inputs: &[PceInput],
        degree: usize,
        n: usize,
        rng: &mut dyn RngCore,
        mut model: F,
    ) -> Result<Self> {
        if inputs.is_empty() {
            return Err(PceError::InvalidSpec("at least one input required".into()));
        }
        let dim = inputs.len();
        let indices = total_degree_set(dim, degree);
        if n < indices.len() {
            return Err(PceError::InvalidSpec(format!(
                "regression needs n >= {} basis terms, got n = {n}",
                indices.len()
            )));
        }
        let families: Vec<PolyFamily> = inputs.iter().map(|i| i.family()).collect();
        let design = LatinHypercubeDesign;
        let points = design
            .generate(n, dim, rng)
            .map_err(|e| PceError::InvalidSpec(e.to_string()))?;
        let mut a = Matrix::zeros(n, indices.len());
        let mut b = vec![0.0; n];
        for (row, u) in points.iter().enumerate() {
            let germ: Vec<f64> = u
                .iter()
                .zip(inputs)
                .map(|(&ui, inp)| inp.germ_quantile(ui.clamp(1e-12, 1.0 - 1e-12)))
                .collect();
            let x: Vec<f64> =
                germ.iter().zip(inputs).map(|(&xi, inp)| inp.to_physical(xi)).collect();
            b[row] = model(&x);
            let uni: Vec<Vec<f64>> = families
                .iter()
                .zip(&germ)
                .map(|(f, &xi)| f.eval_orthonormal(degree, xi))
                .collect();
            for (col, alpha) in indices.iter().enumerate() {
                a[(row, col)] = alpha.iter().enumerate().map(|(d, &k)| uni[d][k]).product();
            }
        }
        let coefficients = lstsq(&a, &b)?;
        Ok(Self::assemble(inputs, indices, coefficients, n))
    }

    /// The multi-index set of the basis.
    pub fn indices(&self) -> &[MultiIndex] {
        &self.indices
    }

    /// The fitted coefficients, aligned with [`ChaosExpansion::indices`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Number of model evaluations used for the fit.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Number of input dimensions.
    pub fn dim(&self) -> usize {
        self.inputs.len()
    }

    /// The input specifications the expansion was fitted over.
    pub fn inputs(&self) -> &[PceInput] {
        &self.inputs
    }

    /// Evaluates the surrogate at a unit-hypercube point: each coordinate
    /// `u_i ∈ (0, 1)` is mapped through the germ quantile of input `i`.
    /// This is the bridge that lets any design-of-experiment engine (LHS,
    /// Sobol', ...) sample the fitted surrogate. It is a one-row call of
    /// the kernel behind [`ChaosExpansion::eval_u_batch`], through the
    /// same germ map.
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` differs from the input dimension.
    pub fn eval_u(&self, u: &[f64]) -> f64 {
        assert_eq!(u.len(), self.inputs.len(), "eval_u: dimension mismatch");
        let mut out = [0.0];
        self.eval_blocks(&mut out, |d, _, xi| self.inputs[d].germ_fill(&u[d..=d], xi));
        out[0]
    }

    /// Evaluates the surrogate at unit-hypercube rows held as columns
    /// (`columns[i][r]` is coordinate `i` of row `r`) into `out`, bit for
    /// bit what [`ChaosExpansion::eval_u`] returns for each row. Each
    /// coordinate is clamped to `[1e-12, 1 − 1e-12]` and mapped through
    /// the germ quantile of its input.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len()` differs from the input dimension or a
    /// column's length from `out.len()`.
    pub fn eval_u_batch(&self, columns: &[&[f64]], out: &mut [f64]) {
        assert_eq!(columns.len(), self.inputs.len(), "eval_u_batch: dimension mismatch");
        assert!(
            columns.iter().all(|c| c.len() == out.len()),
            "eval_u_batch: column lengths differ from the output's"
        );
        self.eval_blocks(out, |d, lo, germ| {
            self.inputs[d].germ_fill(&columns[d][lo..lo + germ.len()], germ);
        });
    }

    /// Evaluates the surrogate at a germ point: a one-row call of the
    /// kernel behind [`ChaosExpansion::eval_u_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `germ.len()` differs from the input dimension.
    pub fn eval_germ(&self, germ: &[f64]) -> f64 {
        assert_eq!(germ.len(), self.inputs.len(), "eval_germ: dimension mismatch");
        let mut out = [0.0];
        self.eval_blocks(&mut out, |d, _, xi| xi[0] = germ[d]);
        out[0]
    }

    /// The surrogate kernel: `out` in blocks of [`BLOCK`] rows. For each
    /// block, `fill_germ(i, first_row, germ)` writes the block's germ
    /// values of input `i`; each input's orthonormal basis goes into a
    /// table `p_k(ξ)[row]`, and the terms are summed in index order. Every
    /// operation is the one the row-wise evaluation performs, in the same
    /// order: the basis is [`PolyFamily::eval_orthonormal`]'s recurrence,
    /// a term is `c · ((p_{α_0} · p_{α_1}) · …)`, and the sum starts from
    /// `Iterator::sum`'s start value.
    fn eval_blocks(&self, out: &mut [f64], mut fill_germ: impl FnMut(usize, usize, &mut [f64])) {
        if out.is_empty() {
            return;
        }
        let width = out.len().min(BLOCK);
        let stride = (self.degree + 1) * width;
        let mut tables = vec![0.0; (self.inputs.len() * stride) + 2 * width];
        let (basis, rest) = tables.split_at_mut(self.inputs.len() * stride);
        let (germ, psi) = rest.split_at_mut(width);
        let start: f64 = std::iter::empty::<f64>().sum();
        for (block, rows) in out.chunks_mut(width).enumerate() {
            let n = rows.len();
            for (d, steps) in self.steps.iter().enumerate() {
                let xi = &mut germ[..n];
                fill_germ(d, block * width, xi);
                let table = &mut basis[d * stride..(d + 1) * stride];
                table[..n].fill(1.0);
                for (k, step) in steps.iter().enumerate() {
                    let (done, rest) = table.split_at_mut((k + 1) * width);
                    let curr = &done[k * width..][..n];
                    let next = &mut rest[..n];
                    if k == 0 {
                        for ((y, &x), &c) in next.iter_mut().zip(xi.iter()).zip(curr) {
                            *y = step.apply(x, c, 0.0);
                        }
                    } else {
                        let prev = &done[(k - 1) * width..][..n];
                        for (((y, &x), &c), &p) in
                            next.iter_mut().zip(xi.iter()).zip(curr).zip(prev)
                        {
                            *y = step.apply(x, c, p);
                        }
                    }
                }
            }
            rows.fill(start);
            for (alpha, &c) in self.indices.iter().zip(&self.coefficients) {
                let psi = &mut psi[..n];
                psi.copy_from_slice(&basis[alpha[0] * width..][..n]);
                for (d, &k) in alpha.iter().enumerate().skip(1) {
                    for (p, &v) in psi.iter_mut().zip(&basis[d * stride + k * width..][..n]) {
                        *p *= v;
                    }
                }
                for (y, &p) in rows.iter_mut().zip(psi.iter()) {
                    *y += c * p;
                }
            }
        }
    }

    /// Mean of the surrogate output (`c_0` by orthonormality).
    pub fn mean(&self) -> f64 {
        self.coefficients[0]
    }

    /// Variance of the surrogate output (`Σ_{α≠0} c_α²`).
    pub fn variance(&self) -> f64 {
        self.coefficients[1..].iter().map(|c| c * c).sum()
    }

    /// Standard deviation of the surrogate output.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// First-order Sobol' index of input `i`: the fraction of output
    /// variance explained by terms involving *only* `ξ_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sobol_first(&self, i: usize) -> f64 {
        assert!(i < self.inputs.len(), "sobol_first: input index out of range");
        let var = self.variance();
        if var == 0.0 {
            return 0.0;
        }
        self.indices
            .iter()
            .zip(&self.coefficients)
            .filter(|(alpha, _)| {
                alpha[i] > 0 && alpha.iter().enumerate().all(|(d, &a)| d == i || a == 0)
            })
            .map(|(_, &c)| c * c)
            .sum::<f64>()
            / var
    }

    /// Total Sobol' index of input `i`: the fraction of output variance in
    /// terms involving `ξ_i` at all (including interactions).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sobol_total(&self, i: usize) -> f64 {
        assert!(i < self.inputs.len(), "sobol_total: input index out of range");
        let var = self.variance();
        if var == 0.0 {
            return 0.0;
        }
        self.indices
            .iter()
            .zip(&self.coefficients)
            .filter(|(alpha, _)| alpha[i] > 0)
            .map(|(_, &c)| c * c)
            .sum::<f64>()
            / var
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysunc_prob::rng::{Rng, SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn projection_exact_for_linear_model() {
        // Y = 3 + 2 X1 - X2, X1 ~ N(1, 0.5), X2 ~ U(0, 4).
        let inputs = [
            PceInput::Normal { mu: 1.0, sigma: 0.5 },
            PceInput::Uniform { a: 0.0, b: 4.0 },
        ];
        let pce =
            ChaosExpansion::fit_projection(&inputs, 1, |x| 3.0 + 2.0 * x[0] - x[1]).unwrap();
        // E[Y] = 3 + 2 - 2 = 3; Var[Y] = 4*0.25 + 16/12 = 1 + 4/3.
        assert!((pce.mean() - 3.0).abs() < 1e-10);
        assert!((pce.variance() - (1.0 + 4.0 / 3.0)).abs() < 1e-10);
    }

    #[test]
    fn projection_exact_for_quadratic_model() {
        // Y = X², X ~ N(0, 1): mean 1, variance 2.
        let inputs = [PceInput::Normal { mu: 0.0, sigma: 1.0 }];
        let pce = ChaosExpansion::fit_projection(&inputs, 2, |x| x[0] * x[0]).unwrap();
        assert!((pce.mean() - 1.0).abs() < 1e-10);
        assert!((pce.variance() - 2.0).abs() < 1e-9);
        // Surrogate reproduces the model pointwise.
        for &xi in &[-2.0, -0.5, 0.0, 1.0, 2.3] {
            assert!((pce.eval_germ(&[xi]) - xi * xi).abs() < 1e-9);
        }
    }

    #[test]
    fn exp_of_normal_converges_with_degree() {
        // Y = exp(X), X ~ N(0, 0.5²): E[Y] = exp(0.125).
        let inputs = [PceInput::Normal { mu: 0.0, sigma: 0.5 }];
        let truth = (0.125f64).exp();
        let mut prev = f64::INFINITY;
        for degree in [1usize, 3, 6] {
            let pce = ChaosExpansion::fit_projection(&inputs, degree, |x| x[0].exp()).unwrap();
            let err = (pce.mean() - truth).abs();
            assert!(err < prev, "degree {degree}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 1e-8);
    }

    #[test]
    fn regression_matches_projection_on_polynomials() {
        let inputs = [
            PceInput::Uniform { a: -1.0, b: 1.0 },
            PceInput::Uniform { a: -1.0, b: 1.0 },
        ];
        let model = |x: &[f64]| 1.0 + x[0] + 0.5 * x[0] * x[1];
        let proj = ChaosExpansion::fit_projection(&inputs, 2, model).unwrap();
        let reg = ChaosExpansion::fit_regression(&inputs, 2, 60, &mut rng(), model).unwrap();
        for (a, b) in proj.coefficients().iter().zip(reg.coefficients()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert!(ChaosExpansion::fit_regression(&inputs, 2, 3, &mut rng(), model).is_err());
    }

    #[test]
    fn eval_u_matches_eval_germ_through_quantiles() {
        let inputs = [
            PceInput::Normal { mu: 1.0, sigma: 0.5 },
            PceInput::Uniform { a: 0.0, b: 4.0 },
        ];
        let pce =
            ChaosExpansion::fit_projection(&inputs, 2, |x| x[0] * x[1] + x[0]).unwrap();
        for &(u0, u1) in &[(0.1, 0.9), (0.5, 0.5), (0.73, 0.21)] {
            let germ = [inputs[0].germ_quantile(u0), inputs[1].germ_quantile(u1)];
            assert!((pce.eval_u(&[u0, u1]) - pce.eval_germ(&germ)).abs() < 1e-12);
        }
        assert_eq!(pce.inputs().len(), 2);
    }

    /// The row-wise surrogate as it was before the column kernel: germ
    /// `Vec`, one `eval_orthonormal` table per input, product and sum by
    /// iterator.
    fn row_reference(pce: &ChaosExpansion, u: &[f64]) -> f64 {
        let germ: Vec<f64> = u
            .iter()
            .zip(pce.inputs())
            .map(|(&ui, inp)| inp.germ_quantile(ui.clamp(1e-12, 1.0 - 1e-12)))
            .collect();
        let degree = pce.indices().iter().map(|a| a.iter().sum::<usize>()).max().unwrap_or(0);
        let uni: Vec<Vec<f64>> = pce
            .inputs()
            .iter()
            .zip(&germ)
            .map(|(inp, &xi)| inp.family().eval_orthonormal(degree, xi))
            .collect();
        pce.indices()
            .iter()
            .zip(pce.coefficients())
            .map(|(alpha, &c)| {
                c * alpha.iter().enumerate().map(|(d, &k)| uni[d][k]).product::<f64>()
            })
            .sum()
    }

    #[test]
    fn column_kernel_is_bit_identical_to_the_row_path_on_every_germ_family() {
        let inputs = [
            PceInput::Normal { mu: 1.0, sigma: 0.5 },
            PceInput::Uniform { a: 0.0, b: 4.0 },
            PceInput::Exponential { rate: 2.0 },
            PceInput::Beta { alpha: 2.5, beta: 1.5 },
        ];
        let model = |x: &[f64]| (x[0] * x[1]).sin() + x[2] * x[3] - x[0] * x[0] * x[3];
        let pce = ChaosExpansion::fit_projection(&inputs, 3, model).unwrap();
        let one = ChaosExpansion::fit_projection(&inputs[3..], 4, |x| x[0].exp()).unwrap();
        let mut r = rng();
        // Ragged against the 64-row block: short, exact, one over, many.
        for n in [1, 7, 64, 65, 130, 257] {
            for (fit, dim) in [(&pce, 4), (&one, 1)] {
                // Uniform draws plus the clamp's edges and beyond.
                let cols: Vec<Vec<f64>> = (0..dim)
                    .map(|j| {
                        (0..n)
                            .map(|i| match (i + j) % 9 {
                                0 => 0.0,
                                1 => 1.0,
                                2 => 1e-13,
                                _ => r.random::<f64>(),
                            })
                            .collect()
                    })
                    .collect();
                let columns: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
                let mut out = vec![f64::NAN; n];
                fit.eval_u_batch(&columns, &mut out);
                for (i, &y) in out.iter().enumerate() {
                    let u: Vec<f64> = cols.iter().map(|c| c[i]).collect();
                    let expect = row_reference(fit, &u);
                    assert_eq!(y.to_bits(), expect.to_bits(), "n={n} dim={dim} row {i}");
                    assert_eq!(fit.eval_u(&u).to_bits(), expect.to_bits(), "eval_u, row {i}");
                }
            }
        }
        let germ = [0.3, -0.7, 1.9, 0.25];
        let uni: Vec<Vec<f64>> =
            inputs.iter().zip(germ).map(|(inp, xi)| inp.family().eval_orthonormal(3, xi)).collect();
        let expect: f64 = pce
            .indices()
            .iter()
            .zip(pce.coefficients())
            .map(|(a, &c)| c * a.iter().enumerate().map(|(d, &k)| uni[d][k]).product::<f64>())
            .sum();
        assert_eq!(pce.eval_germ(&germ).to_bits(), expect.to_bits());
        pce.eval_u_batch(&[&[], &[], &[], &[]], &mut []);
    }

    #[test]
    fn sobol_indices_additive_model() {
        // Y = X1 + 2 X2 with unit-variance inputs: S1 = 1/5, S2 = 4/5.
        let inputs = [
            PceInput::Normal { mu: 0.0, sigma: 1.0 },
            PceInput::Normal { mu: 0.0, sigma: 1.0 },
        ];
        let pce = ChaosExpansion::fit_projection(&inputs, 2, |x| x[0] + 2.0 * x[1]).unwrap();
        assert!((pce.sobol_first(0) - 0.2).abs() < 1e-9);
        assert!((pce.sobol_first(1) - 0.8).abs() < 1e-9);
        assert!((pce.sobol_total(0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn sobol_indices_interaction_model() {
        // Y = X1 * X2 (pure interaction): S1 = S2 = 0, totals = 1.
        let inputs = [
            PceInput::Uniform { a: -1.0, b: 1.0 },
            PceInput::Uniform { a: -1.0, b: 1.0 },
        ];
        let pce = ChaosExpansion::fit_projection(&inputs, 2, |x| x[0] * x[1]).unwrap();
        assert!(pce.sobol_first(0).abs() < 1e-9);
        assert!(pce.sobol_first(1).abs() < 1e-9);
        assert!((pce.sobol_total(0) - 1.0).abs() < 1e-9);
        assert!((pce.sobol_total(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ishigami_sobol_indices_match_analytic() {
        // Ishigami with a = 7, b = 0.1 over U(-π, π)³.
        let a = 7.0;
        let b = 0.1;
        let pi = std::f64::consts::PI;
        let inputs = [PceInput::Uniform { a: -pi, b: pi }; 3];
        let model = |x: &[f64]| x[0].sin() + a * x[1].sin().powi(2) + b * x[2].powi(4) * x[0].sin();
        let pce = ChaosExpansion::fit_projection(&inputs, 10, model).unwrap();
        // Analytic values.
        let v1 = 0.5 * (1.0 + b * pi.powi(4) / 5.0).powi(2);
        let v2 = a * a / 8.0;
        let v13 = b * b * pi.powi(8) * (1.0 / 18.0 - 1.0 / 50.0);
        let v = v1 + v2 + v13;
        assert!((pce.variance() - v).abs() / v < 0.02, "var {} vs {v}", pce.variance());
        assert!((pce.sobol_first(0) - v1 / v).abs() < 0.02);
        assert!((pce.sobol_first(1) - v2 / v).abs() < 0.02);
        assert!(pce.sobol_first(2).abs() < 0.02);
        assert!((pce.sobol_total(2) - v13 / v).abs() < 0.02);
    }

    #[test]
    fn sparse_projection_close_to_tensor_for_smooth_model() {
        let inputs = [PceInput::Uniform { a: -1.0, b: 1.0 }; 4];
        let model = |x: &[f64]| (x.iter().sum::<f64>() / 2.0).cos();
        let tensor = ChaosExpansion::fit_projection(&inputs, 3, model).unwrap();
        let sparse = ChaosExpansion::fit_sparse_projection(&inputs, 3, 4, model).unwrap();
        assert!(
            sparse.evaluations() < tensor.evaluations(),
            "sparse {} vs tensor {}",
            sparse.evaluations(),
            tensor.evaluations()
        );
        assert!((tensor.mean() - sparse.mean()).abs() < 1e-4);
        assert!((tensor.variance() - sparse.variance()).abs() < 1e-3);
    }
}
