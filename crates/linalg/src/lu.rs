//! LU decomposition with partial pivoting.

use crate::{DMatrix, DVector, LinalgError};

/// Relative pivot threshold below which a matrix is treated as singular.
const PIVOT_EPS: f64 = 1e-13;

/// An LU decomposition `P * A = L * U` with partial (row) pivoting.
///
/// The decomposition is computed once and can then be reused for multiple
/// solves against different right-hand sides — the access pattern of policy
/// iteration, which re-solves the evaluation equations every improvement
/// step.
///
/// # Examples
///
/// ```
/// use dpm_linalg::{DMatrix, DVector};
///
/// # fn main() -> Result<(), dpm_linalg::LinalgError> {
/// let a = DMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&DVector::from_vec(vec![10.0, 12.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// assert!((lu.det() - -6.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper, on/above diagonal).
    factors: DMatrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// +1.0 or -1.0 depending on the parity of the permutation.
    sign: f64,
}

impl Lu {
    /// Factorizes `a`, consuming it as workspace.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square, or
    /// [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn new(mut a: DMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = a.max_abs().max(1.0);

        for k in 0..n {
            // Find the largest pivot in column k at or below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = a[(k, k)].abs();
            for r in (k + 1)..n {
                let v = a[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= PIVOT_EPS * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = a[(k, c)];
                    a[(k, c)] = a[(pivot_row, c)];
                    a[(pivot_row, c)] = tmp;
                }
                perm.swap(k, pivot_row);
                sign = -sign;
            }
            let pivot = a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / pivot;
                a[(r, k)] = factor;
                // dpm-lint: allow(float_eq, reason = "exact structural-zero skip: a 0.0 factor contributes nothing to the update")
                if factor != 0.0 {
                    for c in (k + 1)..n {
                        let delta = factor * a[(k, c)];
                        a[(r, c)] -= delta;
                    }
                }
            }
        }

        Ok(Lu {
            factors: a,
            perm,
            sign,
        })
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.factors.nrows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &DVector) -> Result<DVector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation: y = P b.
        let mut x = DVector::from_fn(n, |i| b[self.perm[i]]);
        // Forward substitution with unit lower triangle.
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.factors[(i, k)] * x[k];
            }
            x[i] = sum;
        }
        // Back substitution with upper triangle.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= self.factors[(i, k)] * x[k];
            }
            x[i] = sum / self.factors[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `B` has the wrong number
    /// of rows.
    pub fn solve_matrix(&self, b: &DMatrix) -> Result<DMatrix, LinalgError> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu solve_matrix",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = DMatrix::zeros(n, b.ncols());
        for c in 0..b.ncols() {
            let col = self.solve(&b.column(c))?;
            for r in 0..n {
                out[(r, c)] = col[r];
            }
        }
        Ok(out)
    }

    /// Determinant of the original matrix.
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.factors[(i, i)];
        }
        d
    }

    /// Inverse of the original matrix.
    ///
    /// Prefer [`Lu::solve`] when only the action of the inverse is needed.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (which cannot occur for a successfully
    /// factorized matrix, but the signature is kept fallible for uniformity).
    pub fn inverse(&self) -> Result<DMatrix, LinalgError> {
        self.solve_matrix(&DMatrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a =
            DMatrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let b = DVector::from_vec(vec![5.0, -2.0, 9.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let residual = &a.mul_vec(&x) - &b;
        assert!(residual.norm_inf() < 1e-12);
    }

    #[test]
    fn requires_pivoting() {
        // Zero in the (0,0) position: fails without partial pivoting.
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a
            .lu()
            .unwrap()
            .solve(&DVector::from_vec(vec![3.0, 7.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[7.0, 3.0]);
    }

    #[test]
    fn detects_singular() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = DMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = DMatrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]).unwrap();
        assert!((a.lu().unwrap().det() - -14.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_of_identity_is_one() {
        assert!((DMatrix::identity(5).lu().unwrap().det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_multiplies_to_identity() {
        let a = DMatrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let diff = &prod - &DMatrix::identity(2);
        assert!(diff.max_abs() < 1e-12);
    }

    #[test]
    fn solve_matrix_matches_columnwise_solves() {
        let a = DMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let b = DMatrix::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]).unwrap();
        let x = a.lu().unwrap().solve_matrix(&b).unwrap();
        assert_eq!(x, DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]).unwrap());
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let a = DMatrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&DVector::zeros(2)).is_err());
    }

    #[test]
    fn solve_handles_permuted_diagonal() {
        // Permutation matrix times diagonal: heavy pivoting path.
        let a =
            DMatrix::from_rows(&[&[0.0, 0.0, 3.0], &[5.0, 0.0, 0.0], &[0.0, 2.0, 0.0]]).unwrap();
        let b = DVector::from_vec(vec![6.0, 10.0, 4.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 2.0).abs() < 1e-12);
    }
}
