//! Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts).
//!
//! This is the engine behind Golub–Welsch Gauss quadrature: the nodes of an
//! `n`-point Gauss rule are the eigenvalues of the Jacobi matrix built from
//! the orthogonal-polynomial recurrence coefficients, and the weights follow
//! from the first components of the eigenvectors.

use crate::error::{AlgebraError, Result};

/// Eigendecomposition of a symmetric tridiagonal matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// First component of each (normalized) eigenvector, aligned with
    /// `values`. This is all Golub–Welsch needs.
    pub first_components: Vec<f64>,
}

/// Computes eigenvalues and eigenvector first components of the symmetric
/// tridiagonal matrix with diagonal `diag` and off-diagonal `offdiag`
/// (`offdiag.len() == diag.len() - 1`).
///
/// Implicit QL algorithm with Wilkinson shifts, rotating a row vector that
/// starts as `e_1` to accumulate the eigenvector first components.
///
/// # Errors
///
/// Returns [`AlgebraError::DimensionMismatch`] for inconsistent lengths and
/// [`AlgebraError::ConvergenceFailure`] if an eigenvalue fails to converge
/// in 50 iterations (practically unreachable for quadrature-sized inputs).
///
/// # Examples
///
/// ```
/// use sysunc_algebra::eigen::tridiagonal_eigen;
/// // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
/// let e = tridiagonal_eigen(&[2.0, 2.0], &[1.0])?;
/// assert!((e.values[0] - 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), sysunc_algebra::AlgebraError>(())
/// ```
pub fn tridiagonal_eigen(diag: &[f64], offdiag: &[f64]) -> Result<TridiagonalEigen> {
    let n = diag.len();
    if n == 0 {
        return Err(AlgebraError::DimensionMismatch("empty diagonal".into()));
    }
    if offdiag.len() + 1 != n {
        return Err(AlgebraError::DimensionMismatch(format!(
            "offdiag must have length {}, got {}",
            n - 1,
            offdiag.len()
        )));
    }
    let mut d = diag.to_vec();
    // e is padded so e[n-1] = 0.
    let mut e = offdiag.to_vec();
    e.push(0.0);
    // z accumulates the first row of the rotation product: eigenvector first
    // components.
    let mut z = vec![0.0; n];
    z[0] = 1.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(AlgebraError::ConvergenceFailure("tridiagonal QL".into()));
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate rotation into the first-component vector.
                f = z[i + 1];
                z[i + 1] = s * z[i] + c * f;
                z[i] = c * z[i] - s * f;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort ascending, carrying the first components along.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    Ok(TridiagonalEigen {
        values: idx.iter().map(|&i| d[i]).collect(),
        first_components: idx.iter().map(|&i| z[i]).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_by_one() {
        let e = tridiagonal_eigen(&[5.0], &[]).unwrap();
        assert_eq!(e.values, vec![5.0]);
        assert!((e.first_components[0].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn two_by_two_known() {
        let e = tridiagonal_eigen(&[2.0, 2.0], &[1.0]).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        // Eigenvectors are (1, ∓1)/√2, so first components ±1/√2.
        for fc in &e.first_components {
            assert!((fc.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let e = tridiagonal_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-14);
        assert!((e.values[1] - 2.0).abs() < 1e-14);
        assert!((e.values[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn toeplitz_tridiagonal_analytic_spectrum() {
        // diag = 2, offdiag = -1 on n=10: eigenvalues 2 - 2 cos(kπ/(n+1)).
        let n = 10;
        let e = tridiagonal_eigen(&vec![2.0; n], &vec![-1.0; n - 1]).unwrap();
        for (k, &v) in e.values.iter().enumerate() {
            let expect =
                2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n as f64 + 1.0)).cos();
            assert!((v - expect).abs() < 1e-10, "k={k}: {v} vs {expect}");
        }
    }

    #[test]
    fn first_components_have_unit_norm() {
        let e = tridiagonal_eigen(&[1.0, 2.0, 3.0, 4.0], &[0.5, 0.6, 0.7]).unwrap();
        // The z-vector is a rotation image of e1, so Σ z_i² = 1.
        let norm2: f64 = e.first_components.iter().map(|z| z * z).sum();
        assert!((norm2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(tridiagonal_eigen(&[], &[]).is_err());
        assert!(tridiagonal_eigen(&[1.0, 2.0], &[]).is_err());
    }

    #[test]
    fn trace_is_preserved() {
        let diag = [1.5, -2.0, 0.7, 3.3, 0.1];
        let off = [0.4, 1.2, -0.3, 0.9];
        let e = tridiagonal_eigen(&diag, &off).unwrap();
        let trace: f64 = diag.iter().sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }
}
