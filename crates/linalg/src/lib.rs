//! Dense linear algebra for continuous-time Markov analysis.
//!
//! This crate is the numerical substrate of the `dpm` workspace. It provides
//! exactly the operations the Markov-chain and Markov-decision-process layers
//! need, with no external dependencies:
//!
//! * [`DVector`] and [`DMatrix`] — growable dense vectors and row-major
//!   matrices over `f64`;
//! * [`Lu`] — LU decomposition with partial pivoting over sparse rows
//!   (dense matrices or `(column, value)` rows), giving linear solves,
//!   determinants and inverses;
//! * [`kron`] / [`kron_sum`] — the Kronecker (tensor) product and sum used by
//!   the paper's compositional generator construction (Definition 4.4), with
//!   sparse CSR twins [`kron_sparse`] / [`kron_sum_sparse`];
//! * [`KroneckerOp`] — an *implicit* sum of Kronecker-product terms with a
//!   shuffle-algorithm matvec, the matrix-free representation of
//!   cluster-joint generators (`⊕ᵢ Qᵢ + Σⱼ cⱼ ⊗ᵢ Cⱼᵢ`);
//! * [`LinearOperator`] / [`Precondition`] — the operator and
//!   preconditioner abstractions the Krylov tier is generic over, with
//!   [`BlockJacobi`] as the structure-exploiting preconditioner for
//!   implicit operators;
//! * [`CsrMatrix`] — compressed sparse row storage with `y = Ax` / `y = Aᵀx`
//!   products, transposition and row iteration, for generator matrices whose
//!   nonzero count grows linearly in the state count;
//! * [`krylov`] — preconditioned Krylov solvers over any
//!   [`LinearOperator`] (BiCGSTAB, restarted GMRES(60)) with an ILU(0)
//!   preconditioner, the tier for generator systems whose elimination
//!   fill outgrows a direct solve (Kronecker fleet chains).
//!
//! # Examples
//!
//! Solve a small linear system:
//!
//! ```
//! use dpm_linalg::{DMatrix, DVector};
//!
//! # fn main() -> Result<(), dpm_linalg::LinalgError> {
//! let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
//! let b = DVector::from_vec(vec![3.0, 5.0]);
//! let x = a.lu()?.solve(&b)?;
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod kron;
mod kron_op;
pub mod krylov;
mod lu;
mod matrix;
pub mod op;
pub mod sparse;
mod vector;

pub use error::LinalgError;
pub use kron::{kron, kron_sparse, kron_sum, kron_sum_sparse};
pub use kron_op::KroneckerOp;
pub use lu::Lu;
pub use matrix::DMatrix;
pub use op::{BlockJacobi, LinearOperator, Precondition};
pub use sparse::CsrMatrix;
pub use vector::DVector;

/// Default absolute tolerance used by comparisons throughout the workspace.
pub const DEFAULT_TOL: f64 = 1e-10;

/// Returns `true` if `a` and `b` are within `tol` of each other.
///
/// This is an absolute comparison; the workspace deals in probabilities,
/// rates and costs whose magnitudes are moderate, so absolute tolerances are
/// appropriate.
///
/// # Examples
///
/// ```
/// assert!(dpm_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-10));
/// assert!(!dpm_linalg::approx_eq(1.0, 1.1, 1e-10));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
