//! Orthogonal polynomial families with respect to *probability* measures,
//! and Gauss quadrature via Golub–Welsch.
//!
//! These are the building blocks of generalized polynomial chaos (Wiener–
//! Askey scheme): Hermite ↔ normal, Legendre ↔ uniform, Laguerre ↔
//! exponential/gamma, Jacobi ↔ beta. All recurrences are kept in monic form
//! `p_{k+1} = (x - a_k) p_k - b_k p_{k-1}` with `b_0 = 1` (unit total mass),
//! and evaluation produces the **orthonormal** family.

use crate::eigen::tridiagonal_eigen;
use crate::error::{AlgebraError, Result};

/// An orthogonal polynomial family paired with its probability measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolyFamily {
    /// Probabilists' Hermite polynomials — standard normal measure on ℝ.
    Hermite,
    /// Legendre polynomials — uniform measure on `[-1, 1]`.
    Legendre,
    /// Laguerre polynomials — exponential (rate 1) measure on `[0, ∞)`.
    Laguerre,
    /// Jacobi polynomials with parameters `alpha`, `beta` (> -1) — the
    /// measure proportional to `(1-x)^alpha (1+x)^beta` on `[-1, 1]`,
    /// i.e. a Beta(beta+1, alpha+1) law mapped to `[-1, 1]`.
    Jacobi {
        /// Exponent on `(1 - x)`.
        alpha: f64,
        /// Exponent on `(1 + x)`.
        beta: f64,
    },
}

impl PolyFamily {
    /// Monic-recurrence coefficient `a_k` (k = 0, 1, ...).
    pub fn recurrence_a(&self, k: usize) -> f64 {
        match *self {
            PolyFamily::Hermite | PolyFamily::Legendre => 0.0,
            PolyFamily::Laguerre => 2.0 * k as f64 + 1.0,
            PolyFamily::Jacobi { alpha, beta } => {
                let k = k as f64;
                let s = 2.0 * k + alpha + beta;
                if k == 0.0 {
                    (beta - alpha) / (alpha + beta + 2.0)
                } else {
                    (beta * beta - alpha * alpha) / (s * (s + 2.0))
                }
            }
        }
    }

    /// Monic-recurrence coefficient `b_k` (k = 1, 2, ...); `b_0` is defined
    /// as 1 (probability normalization of the measure).
    pub fn recurrence_b(&self, k: usize) -> f64 {
        if k == 0 {
            return 1.0;
        }
        let kf = k as f64;
        match *self {
            PolyFamily::Hermite => kf,
            PolyFamily::Legendre => kf * kf / (4.0 * kf * kf - 1.0),
            PolyFamily::Laguerre => kf * kf,
            PolyFamily::Jacobi { alpha, beta } => {
                let s = 2.0 * kf + alpha + beta;
                if k == 1 {
                    4.0 * (1.0 + alpha) * (1.0 + beta)
                        / ((2.0 + alpha + beta).powi(2) * (3.0 + alpha + beta))
                } else {
                    4.0 * kf * (kf + alpha) * (kf + beta) * (kf + alpha + beta)
                        / (s * s * (s + 1.0) * (s - 1.0))
                }
            }
        }
    }

    /// Evaluates the orthonormal polynomials `p_0..=p_degree` at `x`.
    ///
    /// Orthonormal with respect to the family's probability measure:
    /// `E[p_m(X) p_n(X)] = δ_mn`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sysunc_algebra::PolyFamily;
    /// let vals = PolyFamily::Hermite.eval_orthonormal(3, 1.0);
    /// assert!((vals[0] - 1.0).abs() < 1e-15); // p0 = 1
    /// assert!((vals[1] - 1.0).abs() < 1e-15); // he1(x) = x
    /// ```
    pub fn eval_orthonormal(&self, degree: usize, x: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(degree + 1);
        out.push(1.0);
        let mut prev = 0.0; // p_{-1}
        let mut curr = 1.0; // p_0
        for k in 0..degree {
            let next = self.orthonormal_step(k).apply(x, curr, prev);
            out.push(next);
            prev = curr;
            curr = next;
        }
        out
    }

    /// The step from `p_k` to `p_{k+1}` of the orthonormal recurrence
    /// [`PolyFamily::eval_orthonormal`] runs. Callers that evaluate many
    /// points compute the steps once and [`OrthonormalStep::apply`] them.
    pub fn orthonormal_step(&self, k: usize) -> OrthonormalStep {
        OrthonormalStep {
            a: self.recurrence_a(k),
            // There is no p_{-1} term.
            sqrt_b: if k == 0 { 0.0 } else { self.recurrence_b(k).sqrt() },
            sqrt_b_next: self.recurrence_b(k + 1).sqrt(),
        }
    }

    /// Evaluates the single orthonormal polynomial of the given degree.
    pub fn eval_one(&self, degree: usize, x: f64) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "eval_orthonormal returns degree + 1 values, never an empty vector"
        )]
        *self.eval_orthonormal(degree, x).last().expect("non-empty by construction")
    }

    /// `n`-point Gauss quadrature rule for the family's probability measure
    /// (weights sum to 1), computed with Golub–Welsch.
    ///
    /// Exactly integrates polynomials up to degree `2n - 1` against the
    /// measure.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] for `n == 0`; eigensolver
    /// failures propagate as [`AlgebraError::ConvergenceFailure`].
    ///
    /// # Examples
    ///
    /// ```
    /// use sysunc_algebra::PolyFamily;
    /// let rule = PolyFamily::Hermite.gauss_rule(5)?;
    /// // E[X^2] = 1 for the standard normal:
    /// let m2: f64 = rule.nodes.iter().zip(&rule.weights)
    ///     .map(|(x, w)| w * x * x).sum();
    /// assert!((m2 - 1.0).abs() < 1e-12);
    /// # Ok::<(), sysunc_algebra::AlgebraError>(())
    /// ```
    pub fn gauss_rule(&self, n: usize) -> Result<GaussRule> {
        if n == 0 {
            return Err(AlgebraError::DimensionMismatch("gauss_rule: n must be > 0".into()));
        }
        let diag: Vec<f64> = (0..n).map(|k| self.recurrence_a(k)).collect();
        let offdiag: Vec<f64> = (1..n).map(|k| self.recurrence_b(k).sqrt()).collect();
        let eig = tridiagonal_eigen(&diag, &offdiag)?;
        let weights: Vec<f64> = eig.first_components.iter().map(|z| z * z).collect();
        Ok(GaussRule { nodes: eig.values, weights })
    }
}

/// One step of the orthonormal three-term recurrence,
/// `√b_{k+1} p_{k+1} = (x − a_k) p_k − √b_k p_{k−1}`, with its
/// coefficients computed ([`PolyFamily::orthonormal_step`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrthonormalStep {
    a: f64,
    sqrt_b: f64,
    sqrt_b_next: f64,
}

impl OrthonormalStep {
    /// `p_{k+1}(x)` from `curr = p_k(x)` and `prev = p_{k−1}(x)`.
    #[inline]
    pub fn apply(&self, x: f64, curr: f64, prev: f64) -> f64 {
        ((x - self.a) * curr - self.sqrt_b * prev) / self.sqrt_b_next
    }
}

/// A quadrature rule: nodes and matching weights.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussRule {
    /// Quadrature nodes, ascending.
    pub nodes: Vec<f64>,
    /// Quadrature weights (sum to 1 for probability measures).
    pub weights: Vec<f64>,
}

impl GaussRule {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the rule is empty (never true for constructed rules).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Applies the rule to a function: `Σ w_i f(x_i)`.
    pub fn integrate<F: FnMut(f64) -> f64>(&self, mut f: F) -> f64 {
        self.nodes.iter().zip(&self.weights).map(|(&x, &w)| w * f(x)).sum()
    }
}

/// Clenshaw–Curtis rule with `n + 1` points on `[-1, 1]` for the **uniform
/// probability** measure (weights sum to 1). Nested for `n` doubling —
/// the natural ingredient for Smolyak sparse grids.
///
/// # Errors
///
/// Returns [`AlgebraError::DimensionMismatch`] for `n == 0`.
pub fn clenshaw_curtis(n: usize) -> Result<GaussRule> {
    if n == 0 {
        return Err(AlgebraError::DimensionMismatch("clenshaw_curtis: n must be > 0".into()));
    }
    let nf = n as f64;
    let mut nodes = Vec::with_capacity(n + 1);
    let mut weights = Vec::with_capacity(n + 1);
    for k in 0..=n {
        nodes.push(-(std::f64::consts::PI * k as f64 / nf).cos());
        let ck = if k == 0 || k == n { 1.0 } else { 2.0 };
        let mut sum = 0.0;
        for j in 1..=n / 2 {
            let bj = if 2 * j == n { 1.0 } else { 2.0 };
            sum += bj / (4.0 * (j * j) as f64 - 1.0)
                * (2.0 * std::f64::consts::PI * (j * k) as f64 / nf).cos();
        }
        // Weight for plain Lebesgue measure on [-1,1] is (ck/n)(1-sum);
        // divide by 2 for the uniform probability measure.
        weights.push(ck / nf * (1.0 - sum) / 2.0);
    }
    Ok(GaussRule { nodes, weights })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn hermite_polynomials_match_closed_forms() {
        // he2(x) = (x² - 1)/√2, he3(x) = (x³ - 3x)/√6
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            let v = PolyFamily::Hermite.eval_orthonormal(3, x);
            close(v[2], (x * x - 1.0) / 2.0f64.sqrt(), 1e-12);
            close(v[3], (x * x * x - 3.0 * x) / 6.0f64.sqrt(), 1e-12);
        }
    }

    #[test]
    fn legendre_polynomials_match_closed_forms() {
        // Orthonormal Legendre w.r.t. uniform on [-1,1]:
        // p_n = sqrt(2n+1) P_n, so p2 = sqrt(5)(3x²-1)/2.
        for &x in &[-1.0, -0.3, 0.0, 0.7, 1.0] {
            let v = PolyFamily::Legendre.eval_orthonormal(2, x);
            close(v[1], 3.0f64.sqrt() * x, 1e-12);
            close(v[2], 5.0f64.sqrt() * (3.0 * x * x - 1.0) / 2.0, 1e-12);
        }
    }

    #[test]
    fn orthonormality_under_gauss_rule() {
        // For each family, check E[p_m p_n] = δ_mn with a high-order rule.
        let families = [
            PolyFamily::Hermite,
            PolyFamily::Legendre,
            PolyFamily::Laguerre,
            PolyFamily::Jacobi { alpha: 1.5, beta: 0.5 },
        ];
        for fam in families {
            let rule = fam.gauss_rule(20).unwrap();
            for m in 0..=5usize {
                for n in 0..=5usize {
                    let inner: f64 = rule
                        .nodes
                        .iter()
                        .zip(&rule.weights)
                        .map(|(&x, &w)| {
                            let v = fam.eval_orthonormal(5, x);
                            w * v[m] * v[n]
                        })
                        .sum();
                    let expect = if m == n { 1.0 } else { 0.0 };
                    assert!(
                        (inner - expect).abs() < 1e-9,
                        "{fam:?}: <p{m}, p{n}> = {inner}"
                    );
                }
            }
        }
    }

    #[test]
    fn gauss_hermite_matches_normal_moments() {
        let rule = PolyFamily::Hermite.gauss_rule(8).unwrap();
        close(rule.weights.iter().sum::<f64>(), 1.0, 1e-12);
        close(rule.integrate(|x| x), 0.0, 1e-12);
        close(rule.integrate(|x| x * x), 1.0, 1e-12);
        close(rule.integrate(|x| x.powi(4)), 3.0, 1e-10);
        close(rule.integrate(|x| x.powi(6)), 15.0, 1e-9);
    }

    #[test]
    fn gauss_legendre_matches_uniform_moments() {
        let rule = PolyFamily::Legendre.gauss_rule(6).unwrap();
        // E[X^2] = 1/3, E[X^4] = 1/5 for U(-1,1).
        close(rule.integrate(|x| x * x), 1.0 / 3.0, 1e-12);
        close(rule.integrate(|x| x.powi(4)), 0.2, 1e-12);
    }

    #[test]
    fn gauss_laguerre_matches_exponential_moments() {
        let rule = PolyFamily::Laguerre.gauss_rule(10).unwrap();
        // E[X^k] = k! for Exp(1).
        close(rule.integrate(|x| x), 1.0, 1e-9);
        close(rule.integrate(|x| x * x), 2.0, 1e-8);
        close(rule.integrate(|x| x * x * x), 6.0, 1e-7);
    }

    #[test]
    fn gauss_jacobi_matches_beta_moments() {
        // Jacobi(alpha=0, beta=0) is Legendre.
        let j = PolyFamily::Jacobi { alpha: 0.0, beta: 0.0 }.gauss_rule(5).unwrap();
        let l = PolyFamily::Legendre.gauss_rule(5).unwrap();
        for (a, b) in j.nodes.iter().zip(&l.nodes) {
            close(*a, *b, 1e-10);
        }
        // Jacobi(1, 2): X on [-1,1] with density ∝ (1-x)(1+x)².
        // E[X] = (beta - alpha)/(alpha + beta + 2) = 1/5 (monic a_0).
        let rule = PolyFamily::Jacobi { alpha: 1.0, beta: 2.0 }.gauss_rule(8).unwrap();
        close(rule.integrate(|x| x), 0.2, 1e-10);
    }

    #[test]
    fn gauss_rule_exactness_degree() {
        // n-point rule integrates degree 2n-1 exactly: check with n = 3 on
        // Legendre and a degree-5 polynomial.
        let rule = PolyFamily::Legendre.gauss_rule(3).unwrap();
        let exact = |k: u32| if k % 2 == 1 { 0.0 } else { 1.0 / (k as f64 + 1.0) };
        for k in 0..=5u32 {
            close(rule.integrate(|x| x.powi(k as i32)), exact(k), 1e-12);
        }
    }

    #[test]
    fn clenshaw_curtis_integrates_smooth_functions() {
        let rule = clenshaw_curtis(16).unwrap();
        close(rule.weights.iter().sum::<f64>(), 1.0, 1e-12);
        // E[cos(X)] over U(-1,1) = sin(1).
        close(rule.integrate(|x| x.cos()), 1.0f64.sin(), 1e-12);
        close(rule.integrate(|x| x * x), 1.0 / 3.0, 1e-12);
        assert!(clenshaw_curtis(0).is_err());
    }

    #[test]
    fn clenshaw_curtis_nesting() {
        // Nodes of CC(4) are a subset of CC(8).
        let small = clenshaw_curtis(4).unwrap();
        let large = clenshaw_curtis(8).unwrap();
        for ns in &small.nodes {
            assert!(
                large.nodes.iter().any(|nl| (nl - ns).abs() < 1e-12),
                "node {ns} not nested"
            );
        }
    }
}
