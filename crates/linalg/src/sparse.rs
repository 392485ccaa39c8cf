//! Compressed sparse row (CSR) matrices.
//!
//! SYS-level generator matrices in this workspace have `O(n)` nonzeros
//! (each joint state couples to an arrival, a departure, and a handful of
//! mode switches) but `O(n²)` dense entries, so dense assembly dominates
//! both memory and solve time once the queue capacity grows. [`CsrMatrix`]
//! stores only the nonzero pattern and supports the operations the
//! stationary and policy-evaluation solvers need: `y = Ax`, `y = Aᵀx`,
//! transposition, and per-row iteration.

// dpm-lint: allow-file(float_eq, reason = "CSR construction and iteration test entries against exact 0.0: only structural zeros are dropped, so the stored matrix is unchanged; any tolerance would alter the sparsity pattern")
use crate::{DMatrix, DVector, LinalgError};

/// A sparse matrix in compressed sparse row format.
///
/// Within each row, column indices are strictly increasing and values are
/// finite; explicit zeros are dropped during construction. These invariants
/// are established by the constructors and preserved by every method.
///
/// # Examples
///
/// ```
/// use dpm_linalg::{CsrMatrix, DVector};
///
/// # fn main() -> Result<(), dpm_linalg::LinalgError> {
/// // [ 2 0 1 ]
/// // [ 0 3 0 ]
/// let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)])?;
/// assert_eq!(a.nnz(), 3);
/// let y = a.mul_vec(&DVector::from_vec(vec![1.0, 1.0, 1.0]));
/// assert_eq!(y.as_slice(), &[3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s slice of `col_idx` /
    /// `values`; length `rows + 1`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates targeting the same entry
    /// are summed (matching the accumulation semantics of generator
    /// assembly, where parallel transitions between the same pair of states
    /// add their rates). Entries that sum to exactly zero are kept — callers
    /// assembling generators rely on the structural pattern — but triplets
    /// with value exactly `0.0` are dropped up front.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if an index is out of bounds or
    /// a value is non-finite.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<CsrMatrix, LinalgError> {
        for &(r, c, v) in triplets {
            check_entry(rows, cols, r, c, v)?;
        }

        // Counting sort by row; `from_row_fn` then drops the zeros, sorts
        // each row segment by column and merges duplicates.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut entries: Vec<(usize, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            entries[cursor[r]] = (c, v);
            cursor[r] += 1;
        }
        CsrMatrix::from_row_fn(rows, cols, triplets.len(), |r, row| {
            row.extend_from_slice(&entries[counts[r]..counts[r + 1]]);
        })
    }

    /// Builds a matrix row by row: `fill(r, row)` appends row `r`'s
    /// `(column, value)` entries, in any order, to the empty `row`.
    ///
    /// The result equals [`CsrMatrix::from_triplets`] on the same entries
    /// listed row by row, bit for bit: exact `0.0` values are dropped, each
    /// row is sorted by column and duplicates are summed in the same order.
    /// One scratch row is reused, so no buffer is allocated per row, and
    /// the column and value arrays are reserved for `capacity` entries up
    /// front: with `capacity` at least the number of stored entries, each
    /// is allocated once.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for the first out-of-bounds
    /// column or non-finite value in row order; `fill` still runs for
    /// every row first.
    pub fn from_row_fn(
        rows: usize,
        cols: usize,
        capacity: usize,
        mut fill: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Result<CsrMatrix, LinalgError> {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(capacity);
        let mut values = Vec::with_capacity(capacity);
        let mut first_invalid = None;
        let mut row = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            row.clear();
            fill(r, &mut row);
            if first_invalid.is_none() {
                first_invalid = row
                    .iter()
                    .find_map(|&(c, v)| check_entry(rows, cols, r, c, v).err());
            }
            row.retain(|&(_, v)| v != 0.0);
            row.sort_unstable_by_key(|&(c, _)| c);
            // Sum each run of equal columns from its first entry on.
            let mut entries = row.iter().copied();
            let mut next = entries.next();
            while let Some((c, mut v)) = next {
                next = entries.next();
                while let Some((_, dup)) = next.filter(|&(c2, _)| c2 == c) {
                    v += dup;
                    next = entries.next();
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        match first_invalid {
            Some(e) => Err(e),
            None => Ok(CsrMatrix {
                rows,
                cols,
                row_ptr,
                col_idx,
                values,
            }),
        }
    }

    /// Converts a dense matrix, dropping exact zeros.
    #[must_use]
    pub fn from_dense(dense: &DMatrix) -> CsrMatrix {
        let (rows, cols) = dense.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materializes the dense equivalent. Intended for tests and small
    /// instances; defeats the purpose at scale.
    #[must_use]
    pub fn to_dense(&self) -> DMatrix {
        let mut dense = DMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                dense[(r, c)] = v;
            }
        }
        dense
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

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored, `nnz / (rows · cols)`; 0 for an empty
    /// matrix.
    #[must_use]
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// The entry at `(r, c)`, zero if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows, "row index {r} out of bounds");
        assert!(c < self.cols, "column index {c} out of bounds");
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        match self.col_idx[range.clone()].binary_search(&c) {
            Ok(offset) => self.values[range.start + offset],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(col, value)` pairs of row `r`, in
    /// increasing column order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row index {r} out of bounds");
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&c, &v)| (c, v))
    }

    /// Iterates over all stored `(row, col, value)` entries in row-major
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()`, mirroring [`DMatrix::mul_vec`].
    #[must_use]
    pub fn mul_vec(&self, v: &DVector) -> DVector {
        assert_eq!(
            v.len(),
            self.cols,
            "mul_vec requires vector length {} to match column count {}",
            v.len(),
            self.cols
        );
        let x = v.as_slice();
        DVector::from_fn(self.rows, |r| self.row(r).map(|(c, a)| a * x[c]).sum())
    }

    /// Vector–matrix product `v * self` (equivalently `selfᵀ v`).
    ///
    /// Computed in one pass over the stored entries without materializing
    /// the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.nrows()`, mirroring [`DMatrix::vec_mul`].
    #[must_use]
    pub fn vec_mul(&self, v: &DVector) -> DVector {
        assert_eq!(
            v.len(),
            self.rows,
            "vec_mul requires vector length {} to match row count {}",
            v.len(),
            self.rows
        );
        let x = v.as_slice();
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr != 0.0 {
                for (c, a) in self.row(r) {
                    y[c] += a * xr;
                }
            }
        }
        DVector::from_vec(y)
    }

    /// The transpose as a new CSR matrix.
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        // Counting sort on columns; the row-major input order guarantees
        // each transposed row comes out sorted by column.
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for (r, c, v) in self.iter() {
            let slot = cursor[c];
            col_idx[slot] = r;
            values[slot] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The main diagonal as a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn diagonal(&self) -> DVector {
        assert!(self.is_square(), "diagonal requires a square matrix");
        DVector::from_fn(self.rows, |i| self.get(i, i))
    }

    /// Returns `true` if every stored value is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Infinity norm of the entry-wise difference with `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &CsrMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        let mut max = 0.0f64;
        for r in 0..self.rows {
            let mut a = self.row(r).peekable();
            let mut b = other.row(r).peekable();
            loop {
                match (a.peek().copied(), b.peek().copied()) {
                    (Some((ca, va)), Some((cb, vb))) => {
                        if ca == cb {
                            max = max.max((va - vb).abs());
                            a.next();
                            b.next();
                        } else if ca < cb {
                            max = max.max(va.abs());
                            a.next();
                        } else {
                            max = max.max(vb.abs());
                            b.next();
                        }
                    }
                    (Some((_, va)), None) => {
                        max = max.max(va.abs());
                        a.next();
                    }
                    (None, Some((_, vb))) => {
                        max = max.max(vb.abs());
                        b.next();
                    }
                    (None, None) => break,
                }
            }
        }
        max
    }
}

/// The construction check on one `(row, column, value)` entry.
fn check_entry(rows: usize, cols: usize, r: usize, c: usize, v: f64) -> Result<(), LinalgError> {
    if r >= rows || c >= cols {
        return Err(LinalgError::InvalidInput {
            reason: format!("triplet ({r}, {c}) out of bounds for {rows}x{cols} matrix"),
        });
    }
    if !v.is_finite() {
        return Err(LinalgError::InvalidInput {
            reason: format!("non-finite value {v} at ({r}, {c})"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        CsrMatrix::from_triplets(3, 3, &[(2, 1, 4.0), (0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0)])
            .unwrap()
    }

    #[test]
    fn triplets_sorted_and_indexed() {
        let a = example();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(2, 0), 3.0);
        assert_eq!(a.get(2, 1), 4.0);
        let row2: Vec<_> = a.row(2).collect();
        assert_eq!(row2, vec![(0, 3.0), (1, 4.0)]);
    }

    #[test]
    fn duplicate_triplets_accumulate() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.5), (0, 1, 2.5)]).unwrap();
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn zero_triplets_dropped() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 1, 5.0)]).unwrap();
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn row_fn_matches_triplets_listed_row_by_row() {
        // Unsorted rows, zeros, a duplicate column summed in input order
        // and an empty row.
        let rows: [&[(usize, f64)]; 3] = [
            &[(2, 0.1), (0, 1.0), (2, 0.2), (1, 0.0), (2, 0.3)],
            &[],
            &[(1, -4.0), (0, 2.5)],
        ];
        let triplets: Vec<_> = rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |&(c, v)| (r, c, v)))
            .collect();
        let by_rows =
            CsrMatrix::from_row_fn(3, 3, 0, |r, row| row.extend_from_slice(rows[r])).unwrap();
        assert_eq!(by_rows, CsrMatrix::from_triplets(3, 3, &triplets).unwrap());
        assert_eq!(
            by_rows.get(0, 2).to_bits(),
            ((0.1 + 0.2) + 0.3f64).to_bits()
        );
        assert_eq!(by_rows.nnz(), 4);
    }

    #[test]
    fn row_fn_reports_the_first_invalid_entry_after_every_row() {
        let mut filled = Vec::new();
        let err = CsrMatrix::from_row_fn(3, 2, 3, |r, row| {
            filled.push(r);
            match r {
                1 => row.push((0, f64::INFINITY)),
                2 => row.push((5, 1.0)),
                _ => row.push((1, 1.0)),
            }
        })
        .unwrap_err();
        assert_eq!(filled, [0, 1, 2]);
        assert_eq!(
            err,
            CsrMatrix::from_triplets(3, 2, &[(0, 1, 1.0), (1, 0, f64::INFINITY), (2, 5, 1.0)])
                .unwrap_err()
        );
    }

    #[test]
    fn rejects_out_of_bounds_and_non_finite() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]).is_err());
    }

    #[test]
    fn dense_round_trip() {
        let a = example();
        let dense = a.to_dense();
        let back = CsrMatrix::from_dense(&dense);
        assert_eq!(a, back);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = example();
        let v = DVector::from_vec(vec![1.0, -1.0, 0.5]);
        let sparse = a.mul_vec(&v);
        let dense = a.to_dense().mul_vec(&v);
        for i in 0..3 {
            assert!((sparse[i] - dense[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn vec_mul_matches_dense() {
        let a = example();
        let v = DVector::from_vec(vec![0.25, 2.0, -1.0]);
        let sparse = a.vec_mul(&v);
        let dense = a.to_dense().vec_mul(&v);
        for i in 0..3 {
            assert!((sparse[i] - dense[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = example();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn transpose_agrees_with_vec_mul() {
        let a = example();
        let v = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let via_transpose = a.transpose().mul_vec(&v);
        let direct = a.vec_mul(&v);
        for i in 0..3 {
            assert!((via_transpose[i] - direct[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn diagonal_and_density() {
        let a = example();
        assert_eq!(a.diagonal().as_slice(), &[1.0, 0.0, 0.0]);
        assert!((a.density() - 4.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_diff_detects_pattern_mismatch() {
        let a = example();
        let mut dense = a.to_dense();
        dense[(1, 1)] = 0.5;
        let b = CsrMatrix::from_dense(&dense);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-15);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn empty_matrix_is_sane() {
        let a = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.density(), 0.0);
        assert!(a.is_finite());
    }
}
