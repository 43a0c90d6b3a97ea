//! # sysunc-algebra — linear algebra and orthogonal polynomials
//!
//! Numerical substrate for the `sysunc` uncertainty toolkit (reproduction of
//! Gansch & Adee, *System Theoretic View on Uncertainties*, DATE 2020):
//!
//! - [`Matrix`] — dense row-major matrices sized for UQ workloads.
//! - [`Cholesky`] / [`Lu`] / [`lstsq`] — the decompositions needed for
//!   correlated-input sampling, linear solves and polynomial-chaos
//!   regression.
//! - [`eigen`] — a symmetric tridiagonal eigensolver (implicit QL), the
//!   engine of Golub–Welsch quadrature.
//! - [`PolyFamily`] — Wiener–Askey orthogonal polynomial families with
//!   Gauss rules ([`PolyFamily::gauss_rule`]) and nested Clenshaw–Curtis
//!   rules ([`clenshaw_curtis`]) for sparse grids.
//!
//! ```
//! use sysunc_algebra::{Matrix, Cholesky, PolyFamily};
//!
//! // Solve an SPD system (e.g. normal equations of a small regression):
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let x = Cholesky::new(&a)?.solve(&[1.0, 2.0])?;
//! assert!((a.mul_vec(&x)?[0] - 1.0).abs() < 1e-12);
//!
//! // 5-point Gauss–Hermite rule reproduces normal moments:
//! let rule = PolyFamily::Hermite.gauss_rule(5)?;
//! assert!((rule.integrate(|x| x * x) - 1.0).abs() < 1e-12);
//! # Ok::<(), sysunc_algebra::AlgebraError>(())
//! ```

mod decomp;
pub mod eigen;
mod error;
mod matrix;
mod orthopoly;

pub use decomp::{lstsq, Cholesky, Lu};
pub use error::{AlgebraError, Result};
pub use matrix::Matrix;
pub use orthopoly::{clenshaw_curtis, GaussRule, OrthonormalStep, PolyFamily};
