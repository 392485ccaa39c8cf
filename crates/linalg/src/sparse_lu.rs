//! Sparse direct LU factorization with partial pivoting.
//!
//! [`SparseLu`] factorizes a square [`CsrMatrix`] by rowwise Gaussian
//! elimination over sorted sparse rows, keeping only the fill-in that
//! actually occurs. For the generator-shaped systems this workspace solves
//! (`O(1)` nonzeros per row plus at most one dense column), elimination cost
//! is near-linear in the state count, and unlike uniformization sweeps
//! (whose count grows as `O(instant_rate / slowest_rate)`) a direct solve
//! does not care how stiff the rate spectrum is.
//!
//! Callers assembling policy-evaluation systems should order any dense
//! column (the gain column of the bias equations) *last*: fill-in produced
//! by eliminating a column never spreads to columns left of it, so a
//! trailing dense column costs `O(n)` extra entries rather than densifying
//! the whole factor.

use crate::{CsrMatrix, DVector, LinalgError};

/// Relative pivot threshold below which the matrix is treated as singular,
/// matching the dense [`crate::Lu`] criterion.
const PIVOT_EPS: f64 = 1e-13;

/// A sparse LU factorization `P · A = L · U` with partial (row) pivoting.
///
/// # Examples
///
/// ```
/// use dpm_linalg::{CsrMatrix, DVector, SparseLu};
///
/// # fn main() -> Result<(), dpm_linalg::LinalgError> {
/// // [ 2 1 ]        [ 4 ]
/// // [ 1 3 ] x  =   [ 7 ]
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])?;
/// let x = SparseLu::new(&a)?.solve(&DVector::from_vec(vec![4.0, 7.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Row permutation: `perm[pos]` is the original row now at `pos`.
    perm: Vec<usize>,
    /// Elimination multipliers per final row position: `lower[pos]` holds
    /// `(k, f)` pairs, ascending in `k < pos`, meaning
    /// `y[pos] -= f · y[k]` during forward substitution. Keyed by final
    /// position — multipliers travel with their row through pivot swaps.
    lower: Vec<Vec<(usize, f64)>>,
    /// Upper-triangular rows: `upper[k]` holds sorted `(col, value)` pairs
    /// with `col ≥ k`; the first entry is the pivot `(k, u_kk)`.
    upper: Vec<Vec<(usize, f64)>>,
}

impl SparseLu {
    /// Factorizes `a`.
    ///
    /// Pivots are chosen by largest magnitude in the active column, ties
    /// broken by lowest row position, so the factorization — like every
    /// solver in this workspace — is a pure function of its input.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square, or
    /// [`LinalgError::Singular`] if no acceptable pivot exists in some
    /// column.
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let scale = a.iter().map(|(_, _, v)| v.abs()).fold(1.0f64, f64::max);

        // Working rows in position space, each carrying its own multiplier
        // history `(k, factor)` so pivot swaps move the two together;
        // entries sorted by column, with every column `< k` already
        // eliminated once column `k` is active.
        type WorkRow = (Vec<(usize, f64)>, Vec<(usize, f64)>);
        let mut rows: Vec<WorkRow> = (0..n).map(|r| (Vec::new(), a.row(r).collect())).collect();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut lower: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut upper: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);

        for k in 0..n {
            // A row's leading entry has column ≥ k here; it participates in
            // this elimination step exactly when that column is k.
            let mut pivot_pos = None;
            let mut pivot_val = 0.0f64;
            for (pos, (_, row)) in rows.iter().enumerate().skip(k) {
                if let Some(&(col, val)) = row.first() {
                    if col == k && val.abs() > pivot_val {
                        pivot_val = val.abs();
                        pivot_pos = Some(pos);
                    }
                }
            }
            let Some(pivot_pos) = pivot_pos else {
                return Err(LinalgError::Singular { pivot: k });
            };
            if pivot_val <= PIVOT_EPS * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            rows.swap(k, pivot_pos);
            perm.swap(k, pivot_pos);

            let (head, below) = rows.split_at_mut(k + 1);
            let pivot_row = &head[k].1;
            let pivot = pivot_row[0].1;
            for (hist, row) in below.iter_mut() {
                let Some(&(col, val)) = row.first() else {
                    continue;
                };
                if col != k {
                    continue;
                }
                let factor = val / pivot;
                hist.push((k, factor));
                *row = subtract_scaled(&row[1..], &pivot_row[1..], factor);
            }
            let (hist, row) = std::mem::take(&mut rows[k]);
            lower.push(hist);
            upper.push(row);
        }

        Ok(SparseLu {
            n,
            perm,
            lower,
            upper,
        })
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored factor entries (fill-in diagnostic).
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.lower.iter().map(Vec::len).sum::<usize>()
            + self.upper.iter().map(Vec::len).sum::<usize>()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &DVector) -> Result<DVector, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // y = P b, then forward substitution: each position's multipliers
        // reference strictly earlier positions, so an ascending pass
        // finalizes y[pos] before anything reads it.
        let mut y = DVector::from_fn(n, |pos| b[self.perm[pos]]);
        for (pos, hist) in self.lower.iter().enumerate() {
            for &(k, factor) in hist {
                let delta = factor * y[k];
                y[pos] -= delta;
            }
        }
        // Back substitution over the sparse upper rows.
        let mut x = DVector::zeros(n);
        for k in (0..n).rev() {
            let row = &self.upper[k];
            let mut sum = y[k];
            for &(col, val) in &row[1..] {
                sum -= val * x[col];
            }
            x[k] = sum / row[0].1;
        }
        Ok(x)
    }
}

/// Computes `target − factor · pivot` over sorted sparse tails, dropping
/// entries that cancel to exactly zero (they can never pivot and contribute
/// nothing downstream).
fn subtract_scaled(
    target: &[(usize, f64)],
    pivot: &[(usize, f64)],
    factor: f64,
) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(target.len() + pivot.len());
    let (mut i, mut j) = (0, 0);
    while i < target.len() && j < pivot.len() {
        let (tc, tv) = target[i];
        let (pc, pv) = pivot[j];
        let entry = if tc == pc {
            i += 1;
            j += 1;
            (tc, tv - factor * pv)
        } else if tc < pc {
            i += 1;
            (tc, tv)
        } else {
            j += 1;
            (pc, -factor * pv)
        };
        // dpm-lint: allow(float_eq, reason = "exact cancellation check: only entries that are literally 0.0 are dropped, which changes the stored pattern but never a solve result")
        if entry.1 != 0.0 {
            out.push(entry);
        }
    }
    out.extend_from_slice(&target[i..]);
    for &(c, v) in &pivot[j..] {
        let v = -factor * v;
        // dpm-lint: allow(float_eq, reason = "exact cancellation check: a scaled entry that underflows to literally 0.0 is structurally absent")
        if v != 0.0 {
            out.push((c, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DMatrix;

    fn csr_of(dense: &DMatrix) -> CsrMatrix {
        CsrMatrix::from_dense(dense)
    }

    #[test]
    fn matches_dense_lu_on_small_system() {
        let a =
            DMatrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let b = DVector::from_vec(vec![5.0, -2.0, 9.0]);
        let sparse = SparseLu::new(&csr_of(&a)).unwrap().solve(&b).unwrap();
        let dense = a.clone().lu().unwrap().solve(&b).unwrap();
        for i in 0..3 {
            assert!((sparse[i] - dense[i]).abs() < 1e-12, "component {i}");
        }
    }

    #[test]
    fn pivots_past_leading_zero() {
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = SparseLu::new(&csr_of(&a))
            .unwrap()
            .solve(&DVector::from_vec(vec![3.0, 7.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[7.0, 3.0]);
    }

    #[test]
    fn pivot_swap_after_recorded_multipliers_is_correct() {
        // Step 0 records multipliers 0.25 and 0.5 for the rows at
        // positions 1 and 2; step 1 then pivots from position 2, swapping
        // the two rows. The multipliers must travel with their rows —
        // a factorization that keys them by position solves this wrong.
        let a =
            DMatrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.25, 0.1, 1.0], &[0.5, 2.0, 3.0]]).unwrap();
        let b = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let x = SparseLu::new(&csr_of(&a)).unwrap().solve(&b).unwrap();
        let dense = a.clone().lu().unwrap().solve(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - dense[i]).abs() < 1e-12, "component {i}");
        }
    }

    #[test]
    fn repeated_pivot_swaps_match_dense_lu() {
        // A cyclic generator-style matrix whose sub-diagonal mass grows
        // down each column, so partial pivoting swaps at nearly every
        // step, long after earlier multipliers were recorded.
        let n = 50;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, -1.2 - (i as f64 * 1.7).sin() * 0.3));
            triplets.push((i, (i + 1) % n, 0.3 + i as f64 * 0.02));
            triplets.push((i, (i + 2) % n, 0.9));
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let b = DVector::from_fn(n, |i| (i as f64 * 0.7).cos());
        let x = SparseLu::new(&a).unwrap().solve(&b).unwrap();
        let dense = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-9, "component {i}");
        }
    }

    #[test]
    fn detects_singular() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            SparseLu::new(&csr_of(&a)),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn detects_structurally_empty_column() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0)]).unwrap();
        assert!(matches!(
            SparseLu::new(&a),
            Err(LinalgError::Singular { pivot: 0 | 1 })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            SparseLu::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let lu = SparseLu::new(&csr_of(&DMatrix::identity(3))).unwrap();
        assert!(lu.solve(&DVector::zeros(2)).is_err());
    }

    #[test]
    fn generator_shaped_system_with_trailing_dense_column_stays_sparse() {
        // Tridiagonal core plus a dense last column: the shape of a
        // policy-evaluation system with the gain column ordered last.
        let n = 60;
        let mut triplets = Vec::new();
        for i in 0..n - 1 {
            triplets.push((i, i, -2.0 - i as f64 * 0.01));
            if i > 0 {
                triplets.push((i, i - 1, 0.7));
            }
            if i + 1 < n - 1 {
                triplets.push((i, i + 1, 1.1));
            }
            triplets.push((i, n - 1, -1.0));
        }
        triplets.push((n - 1, 0, 1.0));
        triplets.push((n - 1, n - 1, 0.5));
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let b = DVector::from_fn(n, |i| (i as f64).sin());

        let sparse_lu = SparseLu::new(&a).unwrap();
        let x = sparse_lu.solve(&b).unwrap();
        let dense = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-9, "component {i}");
        }
        // Fill-in stays linear: nowhere near the n² dense entry count.
        assert!(
            sparse_lu.factor_nnz() < 8 * n,
            "factor nnz {} for n {n}",
            sparse_lu.factor_nnz()
        );
    }

    #[test]
    fn stiff_rate_spread_is_solved_directly() {
        // Rates spanning six orders of magnitude: the regime where
        // uniformized sweeps need O(rate ratio) iterations but a direct
        // factorization is unaffected.
        let a = DMatrix::from_rows(&[
            &[-1e6, 1e6, 0.0],
            &[1.0, -1.0 - 1e-3, 1e-3],
            &[0.0, 2.0, -2.0],
        ])
        .unwrap();
        // Shift to make it nonsingular (resolvent-style system).
        let shifted = DMatrix::from_fn(3, 3, |r, c| a[(r, c)] - f64::from(u8::from(r == c)));
        let b = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let x = SparseLu::new(&csr_of(&shifted)).unwrap().solve(&b).unwrap();
        let residual = &shifted.mul_vec(&x) - &b;
        assert!(
            residual.norm_inf() < 1e-6,
            "residual {}",
            residual.norm_inf()
        );
    }
}
