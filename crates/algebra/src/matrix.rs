//! Dense row-major matrix type.

use crate::error::{AlgebraError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense `rows × cols` matrix of `f64`, stored row-major.
///
/// Sized for the needs of uncertainty propagation (regression design
/// matrices, covariance factors, BN-sized linear systems) — hundreds to a
/// few thousand rows — not for HPC-scale linear algebra.
///
/// # Examples
///
/// ```
/// use sysunc_algebra::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// # Ok::<(), sysunc_algebra::AlgebraError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "Matrix::zeros: dimensions must be positive");
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] when the rows differ in
    /// length or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(AlgebraError::DimensionMismatch("empty matrix".into()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(AlgebraError::DimensionMismatch(format!(
                    "row length {} != {}",
                    r.len(),
                    cols
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Self { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] if `data.len() != rows *
    /// cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(AlgebraError::DimensionMismatch(format!(
                "{}x{} matrix needs {} entries, got {}",
                rows,
                cols,
                rows * cols,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// A view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "Matrix::row: index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "Matrix::col: index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(AlgebraError::DimensionMismatch(format!(
                "mul_vec: matrix has {} cols, vector has {}",
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// `A^T A` (Gram matrix), used by least squares.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut acc = 0.0;
                for k in 0..self.rows {
                    acc += self[(k, i)] * self[(k, j)];
                }
                g[(i, j)] = acc;
                g[(j, i)] = acc;
            }
        }
        g
    }

    /// `A^T b`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DimensionMismatch`] when `b.len() != rows`.
    pub fn transpose_mul_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(AlgebraError::DimensionMismatch(format!(
                "transpose_mul_vec: matrix has {} rows, vector has {}",
                self.rows,
                b.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let bi = b[i];
            for j in 0..self.cols {
                out[j] += self[(i, j)] * bi;
            }
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "Matrix index out of range");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "Matrix index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert!(
            self.rows == rhs.rows && self.cols == rhs.cols,
            "Matrix add: shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert!(
            self.rows == rhs.rows && self.cols == rhs.cols,
            "Matrix sub: shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        assert!(self.cols == rhs.rows, "Matrix mul: inner dimensions disagree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:12.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn mul_vec_and_gram() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert_eq!(a.mul_vec(&[2.0, 3.0]).unwrap(), vec![2.0, 5.0, 8.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
        let g = a.gram();
        assert_eq!(g, Matrix::from_rows(&[&[3.0, 3.0], &[3.0, 5.0]]).unwrap());
        assert_eq!(a.transpose_mul_vec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 1)], 8.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let a = Matrix::identity(2);
        let _ = a[(2, 0)];
    }
}
