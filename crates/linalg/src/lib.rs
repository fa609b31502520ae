//! Dense linear algebra kernel for the `performa` workspace.
//!
//! The matrix-analytic machinery of the reproduced paper (Schwefel & Antonios,
//! DSN 2007) needs a small but dependable set of dense operations on
//! moderately sized matrices (tens to a few hundred rows):
//!
//! * construction and arithmetic on row-major [`Matrix`] values,
//! * LU factorization with partial pivoting ([`lu::Lu`]) for linear solves and
//!   inverses,
//! * Kronecker products and sums ([`kron`]) used to aggregate independent
//!   server processes,
//! * spectral utilities ([`spectral`]) — spectral radius estimates and matrix
//!   powers — used by the QBD solver and by tail-probability evaluation,
//! * the matrix exponential ([`expm`]) used for matrix-exponential
//!   distribution functions.
//!
//! Everything is implemented from scratch on `f64` so the workspace stays
//! self-contained; no external linear-algebra dependency is used.
//!
//! # Example
//!
//! ```
//! use performa_linalg::{Matrix, kron};
//!
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let id = Matrix::identity(2);
//! // Kronecker sum of a generator with itself doubles the state space.
//! let s = kron::kron_sum(&a, &a);
//! assert_eq!(s.nrows(), 4);
//! assert_eq!(s.ncols(), 4);
//! let _ = (a * id); // matrix product
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod matrix;
mod vector;

pub mod compensated;
pub mod expm;
pub mod gemm;
pub mod kron;
pub mod lu;
pub mod spectral;
pub mod threading;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use vector::Vector;

/// Workspace-wide numeric tolerance used as a default by iterative routines.
pub const DEFAULT_TOL: f64 = 1e-12;

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
