//! Matrix decompositions: Cholesky, LU with partial pivoting, and
//! Householder QR least squares.

use crate::error::{AlgebraError, Result};
use crate::matrix::Matrix;

/// Cholesky factorization `A = L L^T` of a symmetric positive-definite
/// matrix.
///
/// Used to sample correlated Gaussian inputs and to solve normal equations.
///
/// # Examples
///
/// ```
/// use sysunc_algebra::{Cholesky, Matrix};
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// # Ok::<(), sysunc_algebra::AlgebraError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::NotSquare`] for rectangular input and
    /// [`AlgebraError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(AlgebraError::NotSquare);
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(AlgebraError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(AlgebraError::DimensionMismatch(format!(
                "solve: expected length {n}, got {}",
                b.len()
            )));
        }
        // Forward substitution L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                sum -= self.l[(i, k)] * yk;
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Backward substitution L^T x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[(k, i)] * xk;
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Log-determinant of `A` (`2 Σ ln L_ii`).
    pub fn ln_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Applies `L` to a vector (`L z`), mapping i.i.d. standard normals to
    /// correlated normals with covariance `A`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] when `z` has the wrong
    /// length.
    pub fn mul_l(&self, z: &[f64]) -> Result<Vec<f64>> {
        self.l.mul_vec(z)
    }
}

/// LU factorization with partial pivoting, `P A = L U`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::NotSquare`] for rectangular input and
    /// [`AlgebraError::Singular`] when a pivot vanishes.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(AlgebraError::NotSquare);
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivot.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in k + 1..n {
                if lu[(i, k)].abs() > max {
                    max = lu[(i, k)].abs();
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(AlgebraError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            for i in k + 1..n {
                let factor = lu[(i, k)] / lu[(k, k)];
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(Self { lu, perm, sign })
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(AlgebraError::DimensionMismatch(format!(
                "solve: expected length {n}, got {}",
                b.len()
            )));
        }
        // Apply permutation, forward substitution (unit lower).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[self.perm[i]];
            for (k, &yk) in y.iter().enumerate().take(i) {
                sum -= self.lu[(i, k)] * yk;
            }
            y[i] = sum;
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                sum -= self.lu[(i, k)] * xk;
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        self.sign * (0..self.lu.rows()).map(|i| self.lu[(i, i)]).product::<f64>()
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates errors of [`Lu::solve`] (which cannot occur for a valid
    /// factorization).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

/// Solves the least-squares problem `min ||A x - b||` via Householder QR.
///
/// More numerically robust than normal equations for the ill-conditioned
/// Vandermonde-like design matrices of PCE regression.
///
/// # Errors
///
/// Returns [`AlgebraError::DimensionMismatch`] when `b.len() != A.rows()` or
/// the system is underdetermined, and [`AlgebraError::Singular`] when `A` is
/// rank-deficient.
///
/// # Examples
///
/// ```
/// use sysunc_algebra::{lstsq, Matrix};
/// // Fit y = 1 + 2x through noisy-free points.
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let x = lstsq(&a, &[1.0, 3.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), sysunc_algebra::AlgebraError>(())
/// ```
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(AlgebraError::DimensionMismatch(format!(
            "lstsq: A has {m} rows, b has {}",
            b.len()
        )));
    }
    if m < n {
        return Err(AlgebraError::DimensionMismatch(format!(
            "lstsq: underdetermined system ({m} rows < {n} cols)"
        )));
    }
    let mut r = a.clone();
    let mut qtb = b.to_vec();
    // Householder triangularization, applying reflectors to b on the fly.
    for k in 0..n {
        // Compute the norm of the k-th column below the diagonal.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-300 {
            return Err(AlgebraError::Singular);
        }
        let alpha = if r[(k, k)] > 0.0 { -norm } else { norm };
        // v = x - alpha e1
        let mut v = vec![0.0; m - k];
        for i in k..m {
            v[i - k] = r[(i, k)];
        }
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 < 1e-300 {
            continue;
        }
        // Apply H = I - 2 v v^T / (v^T v) to R and qtb.
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * r[(i, j)];
            }
            let factor = 2.0 * dot / vnorm2;
            for i in k..m {
                r[(i, j)] -= factor * v[i - k];
            }
        }
        let mut dot = 0.0;
        for i in k..m {
            dot += v[i - k] * qtb[i];
        }
        let factor = 2.0 * dot / vnorm2;
        for i in k..m {
            qtb[i] -= factor * v[i - k];
        }
    }
    // Back substitution on the n×n upper triangle.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = qtb[i];
        for j in i + 1..n {
            sum -= r[(i, j)] * x[j];
        }
        if r[(i, i)].abs() < 1e-300 {
            return Err(AlgebraError::Singular);
        }
        x[i] = sum / r[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_reconstructs_and_solves() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l();
        let rebuilt = l * &l.transpose();
        assert!((&rebuilt - &a).max_abs() < 1e-12);
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10);
        }
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(Cholesky::new(&a), Err(AlgebraError::NotPositiveDefinite)));
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::new(&rect), Err(AlgebraError::NotSquare)));
    }

    #[test]
    fn cholesky_ln_det() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.ln_det() - 36.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn lu_solves_and_determinant() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]])
            .unwrap();
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[5.0, -2.0, 9.0]).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        assert!((ax[0] - 5.0).abs() < 1e-10);
        assert!((ax[1] + 2.0).abs() < 1e-10);
        assert!((ax[2] - 9.0).abs() < 1e-10);
        // det = -16 for this classic example.
        assert!((lu.det() + 16.0).abs() < 1e-10);
    }

    #[test]
    fn lu_inverse_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 7.0]]).unwrap();
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = &a * &inv;
        assert!((&prod - &Matrix::identity(2)).max_abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::new(&a), Err(AlgebraError::Singular)));
    }

    #[test]
    fn lu_pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
        assert!((lu.det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn lstsq_exact_and_overdetermined() {
        // Overdetermined consistent system.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // Inconsistent system: solution minimizes the residual → normal
        // equations hold: A^T(Ax - b) = 0.
        let b2 = [0.0, 1.0, 1.0, 3.0];
        let x2 = lstsq(&a, &b2).unwrap();
        let r: Vec<f64> =
            a.mul_vec(&x2).unwrap().iter().zip(&b2).map(|(ax, b)| ax - b).collect();
        let atr = a.transpose_mul_vec(&r).unwrap();
        assert!(atr.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn lstsq_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        assert!(lstsq(&a, &[1.0, 2.0]).is_err());
        let a2 = Matrix::identity(2);
        assert!(lstsq(&a2, &[1.0]).is_err());
        // Rank-deficient design matrix.
        let a3 = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(lstsq(&a3, &[1.0, 2.0, 3.0]).is_err());
    }
}
