use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{DVector, LinalgError, Lu};

/// A dense, row-major matrix of `f64` values.
///
/// Generator matrices, transition-probability matrices and LP tableaus in the
/// workspace are all built on `DMatrix`.
///
/// # Examples
///
/// ```
/// use dpm_linalg::DMatrix;
///
/// # fn main() -> Result<(), dpm_linalg::LinalgError> {
/// let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// let i = dpm_linalg::DMatrix::identity(2);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f` at each `(row, col)` position.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DMatrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the rows have differing
    /// lengths or if there are zero rows with a nonzero implied width.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::InvalidInput {
                    reason: format!("row {i} has length {} but expected {ncols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DMatrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    #[must_use]
    pub fn from_diagonal(diag: &DVector) -> Self {
        let n = diag.len();
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Wraps raw row-major storage.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput {
                reason: format!("storage length {} does not match {rows}x{cols}", data.len()),
            });
        }
        Ok(DMatrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at `(r, c)`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[must_use]
    pub fn column(&self, c: usize) -> DVector {
        assert!(c < self.cols, "column index {c} out of bounds");
        DVector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Borrows the row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> DMatrix {
        DMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()`.
    #[must_use]
    pub fn mul_vec(&self, v: &DVector) -> DVector {
        assert_eq!(
            v.len(),
            self.cols,
            "mul_vec requires vector length {} to match column count {}",
            v.len(),
            self.cols
        );
        DVector::from_fn(self.rows, |r| {
            self.row(r)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        })
    }

    /// Vector–matrix product `v^T * self`, the row-vector form used to push a
    /// probability distribution through a transition matrix.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.nrows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_linalg::{DMatrix, DVector};
    ///
    /// # fn main() -> Result<(), dpm_linalg::LinalgError> {
    /// let p = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
    /// let pi = DVector::from_vec(vec![0.3, 0.7]);
    /// assert_eq!(p.vec_mul(&pi).as_slice(), &[0.7, 0.3]);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn vec_mul(&self, v: &DVector) -> DVector {
        assert_eq!(
            v.len(),
            self.rows,
            "vec_mul requires vector length {} to match row count {}",
            v.len(),
            self.rows
        );
        let mut out = DVector::zeros(self.cols);
        for r in 0..self.rows {
            let vr = v[r];
            // dpm-lint: allow(float_eq, reason = "exact structural-zero skip: dropping true zeros preserves the product exactly")
            if vr == 0.0 {
                continue;
            }
            let row = self.row(r);
            let slice = out.as_mut_slice();
            for (c, &x) in row.iter().enumerate() {
                slice[c] += vr * x;
            }
        }
        out
    }

    /// Matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// differ.
    pub fn matmul(&self, rhs: &DMatrix) -> Result<DMatrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = DMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(r, k)];
                // dpm-lint: allow(float_eq, reason = "exact structural-zero skip: dropping true zeros preserves the product exactly")
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(r);
                for (c, &b) in rhs_row.iter().enumerate() {
                    out_row[c] += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns a copy with every entry scaled by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> DMatrix {
        self.map(|x| x * factor)
    }

    /// Maps every entry through `f`, returning a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DMatrix {
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Infinity norm: the maximum absolute row sum.
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry, `0.0` for an empty matrix.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Returns `true` if every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Copies the diagonal into a vector.
    ///
    /// For a non-square matrix the diagonal has `min(rows, cols)` entries.
    #[must_use]
    pub fn diagonal(&self) -> DVector {
        let n = self.rows.min(self.cols);
        DVector::from_fn(n, |i| self[(i, i)])
    }

    /// Extracts the rectangular block with rows `r0..r0+nrows` and columns
    /// `c0..c0+ncols`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    #[must_use]
    pub fn block(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> DMatrix {
        assert!(
            r0 + nrows <= self.rows && c0 + ncols <= self.cols,
            "block [{r0}+{nrows}, {c0}+{ncols}] exceeds {}x{}",
            self.rows,
            self.cols
        );
        DMatrix::from_fn(nrows, ncols, |r, c| self[(r0 + r, c0 + c)])
    }

    /// Writes `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &DMatrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block write at ({r0}, {c0}) of {}x{} exceeds {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for r in 0..block.rows {
            for c in 0..block.cols {
                self[(r0 + r, c0 + c)] = block[(r, c)];
            }
        }
    }

    /// Computes the LU decomposition with partial pivoting, storing and
    /// eliminating only the entries that are not `+0.0` ([`Lu::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices,
    /// [`LinalgError::InvalidInput`] for a NaN or infinite entry and
    /// [`LinalgError::Singular`] if a zero pivot is encountered.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::from_dense(self)
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&DMatrix> for &DMatrix {
    type Output = DMatrix;

    fn add(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add requires same shape");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&DMatrix> for &DMatrix {
    type Output = DMatrix;

    fn sub(self, rhs: &DMatrix) -> DMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub requires same shape");
        DMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &DMatrix {
    type Output = DMatrix;

    fn mul(self, rhs: f64) -> DMatrix {
        self.scaled(rhs)
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DMatrix {
        DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn shape_and_indexing() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.get(1, 2), Some(6.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(1).as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    #[test]
    fn from_row_major_validates_length() {
        assert!(DMatrix::from_row_major(2, 2, vec![0.0; 3]).is_err());
        let m = DMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn identity_is_matmul_unit() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = DMatrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = DMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_rejects_mismatched() {
        let a = sample();
        assert!(matches!(
            a.matmul(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mul_vec_and_vec_mul() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = DVector::from_vec(vec![1.0, 1.0]);
        assert_eq!(m.mul_vec(&v).as_slice(), &[3.0, 7.0]);
        assert_eq!(m.vec_mul(&v).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn norms() {
        let m = DMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.norm_inf(), 7.0);
        assert!((m.norm_frobenius() - 30.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn diagonal_and_from_diagonal() {
        let d = DVector::from_vec(vec![2.0, 5.0]);
        let m = DMatrix::from_diagonal(&d);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m.diagonal(), d);
    }

    #[test]
    fn blocks() {
        let m =
            DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        let b = m.block(1, 1, 2, 2);
        assert_eq!(b, DMatrix::from_rows(&[&[5.0, 6.0], &[8.0, 9.0]]).unwrap());
        let mut z = DMatrix::zeros(3, 3);
        z.set_block(0, 1, &b);
        assert_eq!(z[(0, 1)], 5.0);
        assert_eq!(z[(1, 2)], 9.0);
        assert_eq!(z[(2, 2)], 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DMatrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(1, 1)], 3.0);
        assert_eq!((&a * 2.0)[(1, 0)], 6.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(5, 0)];
    }

    #[test]
    fn display_contains_entries() {
        let m = DMatrix::identity(2);
        let text = m.to_string();
        assert!(text.contains("1.000000"));
    }
}
