//! Abstract linear operators and preconditioners for matrix-free solves.
//!
//! The Krylov tier only ever touches a matrix through `y = A·x`: nothing
//! in BiCGSTAB or GMRES needs entries, rows, or a factorization of `A`
//! itself. [`LinearOperator`] captures exactly that contract, so implicit
//! operators — Kronecker-factored generators ([`crate::KroneckerOp`]),
//! scaled/augmented wrappers — feed the same solvers as an assembled
//! [`CsrMatrix`]: each Krylov method has one entry point, taking
//! `&dyn LinearOperator`.
//!
//! [`Precondition`] is the matching abstraction on the `M⁻¹r` side. Two
//! preconditioners implement it: [`crate::krylov::Ilu0`] for assembled
//! matrices, and [`BlockJacobi`] — independent dense LU solves on the
//! diagonal blocks, the natural preconditioner for Kronecker-sum
//! operators whose trailing factor gives the block structure.

use crate::error::LinalgError;
use crate::lu::Lu;
use crate::matrix::DMatrix;
use crate::sparse::CsrMatrix;
use crate::vector::DVector;

/// Something that can act as `y = A·x` on dense vectors.
///
/// The operator is conceptually an `nrows × ncols` matrix; implementors
/// must make [`LinearOperator::apply`] a pure function of `x` so repeated
/// solves stay bit-identical.
pub trait LinearOperator {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;

    /// Number of columns of the operator.
    fn ncols(&self) -> usize;

    /// Computes `A·x`.
    ///
    /// Implementations may assume `x.len() == self.ncols()`; callers are
    /// expected to validate dimensions up front (the Krylov drivers do).
    fn apply(&self, x: &DVector) -> DVector;

    /// Whether every entry the operator can produce is finite. Backed by
    /// an entry scan for assembled matrices; implicit operators that
    /// validate their inputs at construction can keep the default.
    fn is_finite(&self) -> bool {
        true
    }

    /// `(nrows, ncols)`.
    fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols())
    }

    /// Whether the operator is square.
    fn is_square(&self) -> bool {
        self.nrows() == self.ncols()
    }
}

impl LinearOperator for CsrMatrix {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }

    fn apply(&self, x: &DVector) -> DVector {
        self.mul_vec(x)
    }

    fn is_finite(&self) -> bool {
        CsrMatrix::is_finite(self)
    }
}

/// Something that can apply `M⁻¹` to a residual.
///
/// Used for *right* preconditioning in the Krylov tier, so an exact
/// application is never required — any deterministic approximation of
/// `A⁻¹` accelerates convergence without changing the reported (true)
/// residual.
pub trait Precondition {
    /// Applies the preconditioner: returns `x ≈ A⁻¹ r`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `r` has the wrong length;
    /// implementations must not fail otherwise once constructed.
    fn precondition(&self, r: &DVector) -> Result<DVector, LinalgError>;
}

/// Block-Jacobi preconditioner: independent dense LU solves on a list of
/// diagonal blocks.
///
/// The preconditioned residual is computed block by block:
/// `x[kᵢ..kᵢ₊₁] = Bᵢ⁻¹ r[kᵢ..kᵢ₊₁]` where `Bᵢ` is the `i`-th diagonal
/// block. For a Kronecker-structured operator the trailing-axis diagonal
/// blocks ([`crate::KroneckerOp::trailing_blocks`]) capture the full
/// coupling of the last factor plus a per-block diagonal shift from the
/// leading factors, at a memory cost of `n_blocks · block_dim²`.
#[derive(Debug, Clone)]
pub struct BlockJacobi {
    factors: Vec<Lu>,
    dim: usize,
}

impl BlockJacobi {
    /// Factors each diagonal block with dense partial-pivoting LU.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] for an empty block list or a
    /// non-square block, and [`LinalgError::Singular`] if any block fails
    /// to factor — the deterministic signal for callers to retry with a
    /// weaker preconditioner.
    pub fn new(blocks: Vec<DMatrix>) -> Result<BlockJacobi, LinalgError> {
        if blocks.is_empty() {
            return Err(LinalgError::InvalidInput {
                reason: "block-jacobi preconditioner needs at least one block".to_owned(),
            });
        }
        let mut factors = Vec::with_capacity(blocks.len());
        let mut dim = 0usize;
        for block in blocks {
            if block.nrows() != block.ncols() {
                return Err(LinalgError::InvalidInput {
                    reason: format!(
                        "block-jacobi blocks must be square, got {}x{}",
                        block.nrows(),
                        block.ncols()
                    ),
                });
            }
            dim += block.nrows();
            factors.push(Lu::new(block)?);
        }
        Ok(BlockJacobi { factors, dim })
    }

    /// Total dimension (sum of block dimensions).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of diagonal blocks.
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.factors.len()
    }
}

impl Precondition for BlockJacobi {
    fn precondition(&self, r: &DVector) -> Result<DVector, LinalgError> {
        if r.len() != self.dim {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-jacobi precondition",
                left: (self.dim, self.dim),
                right: (r.len(), 1),
            });
        }
        let mut out = Vec::with_capacity(self.dim);
        let mut offset = 0usize;
        for lu in &self.factors {
            let k = lu.dim();
            let rhs = DVector::from_fn(k, |i| r[offset + i]);
            let x = lu.solve(&rhs)?;
            out.extend(x.iter());
            offset += k;
        }
        Ok(DVector::from_vec(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_operator_matches_mul_vec() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -3.0)]).unwrap();
        let x = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let op: &dyn LinearOperator = &a;
        assert_eq!(op.shape(), (2, 3));
        assert!(!op.is_square());
        assert!(op.is_finite());
        assert_eq!(op.apply(&x).as_slice(), a.mul_vec(&x).as_slice());
    }

    #[test]
    fn block_jacobi_is_exact_for_block_diagonal_systems() {
        let b0 = DMatrix::from_row_major(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let b1 = DMatrix::from_row_major(1, 1, vec![4.0]).unwrap();
        let m = BlockJacobi::new(vec![b0.clone(), b1.clone()]).unwrap();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.n_blocks(), 2);
        let r = DVector::from_vec(vec![5.0, 10.0, 8.0]);
        let x = m.precondition(&r).unwrap();
        // Block solves reproduce the exact block-diagonal inverse.
        assert!((b0.mul_vec(&DVector::from_vec(vec![x[0], x[1]]))[0] - 5.0).abs() < 1e-12);
        assert!((b0.mul_vec(&DVector::from_vec(vec![x[0], x[1]]))[1] - 10.0).abs() < 1e-12);
        assert!((x[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn block_jacobi_rejections() {
        assert!(BlockJacobi::new(Vec::new()).is_err());
        let singular = DMatrix::zeros(2, 2);
        assert!(BlockJacobi::new(vec![singular]).is_err());
        let m = BlockJacobi::new(vec![DMatrix::from_row_major(1, 1, vec![1.0]).unwrap()]).unwrap();
        assert!(m.precondition(&DVector::zeros(2)).is_err());
    }
}
