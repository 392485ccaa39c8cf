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
#[derive(Debug, Clone, PartialEq)]
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
    /// Elimination runs on row slices of the row-major storage. Each pivot
    /// row's nonzero trailing columns are collected once, and only those
    /// columns of the rows below are updated, so the structural zeros of
    /// a sparse chain cost nothing. Every update is the plain
    /// `a[r][c] -= factor * a[k][c]`, in row-then-column order, so the
    /// factors are those of the textbook loop; a skipped column could only
    /// have flipped the sign of an exact zero.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square,
    /// [`LinalgError::InvalidInput`] if an entry is NaN or infinite, or
    /// [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn new(mut a: DMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let scale = finite_scale(&a)?;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        // The pivot row's nonzero trailing entries as `(column, value)`.
        let mut pivot_nz: Vec<(usize, f64)> = Vec::with_capacity(n);
        let data = a.as_mut_slice();

        for k in 0..n {
            // Find the largest pivot in column k at or below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = data[k * n + k].abs();
            for r in (k + 1)..n {
                let v = data[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= PIVOT_EPS * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                let (upper, lower) = data.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, pivot_row);
                sign = -sign;
            }
            let (upper, lower) = data.split_at_mut((k + 1) * n);
            let pivot_slice = &upper[k * n..];
            let pivot = pivot_slice[k];
            pivot_nz.clear();
            pivot_nz.extend(
                pivot_slice
                    .iter()
                    .enumerate()
                    .skip(k + 1)
                    .filter(|&(_, &u)| !is_zero(u))
                    .map(|(c, &u)| (c, u)),
            );
            for row in lower.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if !is_zero(factor) {
                    for &(c, u) in &pivot_nz {
                        row[c] -= factor * u;
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
        let [x] = self.solve_each([b])?;
        Ok(x)
    }

    /// Solves `A x_r = b_r` for each of `K` right-hand sides in one pass
    /// over the factors: each factor row is read once and applied to all
    /// `K` vectors.
    ///
    /// Every right-hand side runs the same subtractions in the same order
    /// as a lone [`Lu::solve`], so each `x_r` has its bits.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if some `b_r.len() !=
    /// self.dim()`.
    pub fn solve_each<const K: usize>(
        &self,
        b: [&DVector; K],
    ) -> Result<[DVector; K], LinalgError> {
        let n = self.dim();
        if let Some(bad) = b.iter().find(|v| v.len() != n) {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu solve",
                left: (n, n),
                right: (bad.len(), 1),
            });
        }
        let f = self.factors.as_slice();
        // Apply permutation: y = P b, the K entries of a row side by side.
        let mut x: Vec<[f64; K]> = self.perm.iter().map(|&p| b.map(|v| v[p])).collect();
        // Forward substitution with unit lower triangle.
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i);
            rest[0] = f[i * n..i * n + i]
                .iter()
                .zip(done.iter())
                .fold(rest[0], |sum, (&l, xk)| sub_scaled(sum, l, xk));
        }
        // Back substitution with upper triangle.
        for i in (0..n).rev() {
            let row = &f[i * n..(i + 1) * n];
            let (head, done) = x.split_at_mut(i + 1);
            let sum = row[i + 1..]
                .iter()
                .zip(done.iter())
                .fold(head[i], |sum, (&u, xk)| sub_scaled(sum, u, xk));
            head[i] = sum.map(|s| s / row[i]);
        }
        Ok(std::array::from_fn(|r| {
            DVector::from_vec(x.iter().map(|xi| xi[r]).collect())
        }))
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

/// `sum_r − a·x_r` for each right-hand side `r`: one substitution step.
fn sub_scaled<const K: usize>(mut sum: [f64; K], a: f64, x: &[f64; K]) -> [f64; K] {
    for (s, xr) in sum.iter_mut().zip(x) {
        *s -= a * xr;
    }
    sum
}

/// Whether `x` is an exact zero: a factor or pivot-row entry that is one
/// adds nothing to an elimination update, so the update is skipped.
fn is_zero(x: f64) -> bool {
    // dpm-lint: allow(float_eq, reason = "exact structural-zero skip: a 0.0 operand contributes nothing to the update")
    x == 0.0
}

/// The singularity threshold's scale, `max(1, max |a_ij|)`, checking on
/// the same pass that every entry is finite: a NaN would otherwise factor
/// "successfully" into NaN solves, and an infinity would report a
/// misleading singular pivot.
fn finite_scale(a: &DMatrix) -> Result<f64, LinalgError> {
    let n = a.ncols().max(1);
    let mut scale = 1.0f64;
    for (i, &x) in a.as_slice().iter().enumerate() {
        if !x.is_finite() {
            return Err(LinalgError::InvalidInput {
                reason: format!("LU input entry ({}, {}) is {x}", i / n, i % n),
            });
        }
        scale = scale.max(x.abs());
    }
    Ok(scale)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The textbook elimination the kernel must reproduce: the same pivot
    /// choice, update expression and visiting order, but every column of
    /// every row below the pivot, through the 2-D index.
    fn reference_lu(mut a: DMatrix) -> Result<Lu, LinalgError> {
        let n = a.nrows();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = a.max_abs().max(1.0);
        for k in 0..n {
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

    /// The textbook substitutions over the 2-D index.
    fn reference_solve(lu: &Lu, b: &DVector) -> DVector {
        let n = lu.dim();
        let mut x = DVector::from_fn(n, |i| b[lu.perm[i]]);
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= lu.factors[(i, k)] * x[k];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= lu.factors[(i, k)] * x[k];
            }
            x[i] = sum / lu.factors[(i, i)];
        }
        x
    }

    /// Asserts that the kernel factors `a` as the reference does: the same
    /// permutation, sign and singular pivot, factors equal entrywise (so
    /// at most the sign of an exact zero differs) and solves of `b` equal
    /// bit for bit.
    fn assert_matches_reference(a: &DMatrix, b: &DVector) {
        match (Lu::new(a.clone()), reference_lu(a.clone())) {
            (Ok(lu), Ok(reference)) => {
                prop_assert_eq!(&lu.perm, &reference.perm);
                prop_assert_eq!(lu.sign.to_bits(), reference.sign.to_bits());
                prop_assert_eq!(&lu.factors, &reference.factors);
                let x = lu.solve(b).unwrap();
                let y = reference_solve(&reference, b);
                for (xi, yi) in x.as_slice().iter().zip(y.as_slice()) {
                    prop_assert_eq!(xi.to_bits(), yi.to_bits(), "solve {x:?} vs {y:?}");
                }
            }
            (Err(e), Err(f)) => prop_assert_eq!(e, f),
            (got, want) => panic!("kernel {got:?}, reference {want:?}"),
        }
    }

    /// Asserts that one four-vector pass gives each right-hand side the
    /// bits of its lone [`Lu::solve`] and of the textbook substitutions.
    fn assert_solve_each_matches_solve(a: &DMatrix, b: &(DVector, DVector, DVector, DVector)) {
        let Ok(lu) = Lu::new(a.clone()) else {
            return;
        };
        let b = [&b.0, &b.1, &b.2, &b.3];
        for (x, b) in lu.solve_each(b).unwrap().iter().zip(b) {
            let lone = lu.solve(b).unwrap();
            let textbook = reference_solve(&lu, b);
            for ((xi, yi), zi) in x.iter().zip(lone.iter()).zip(textbook.iter()) {
                prop_assert_eq!(xi.to_bits(), yi.to_bits(), "{x:?} vs lone {lone:?}");
                prop_assert_eq!(xi.to_bits(), zi.to_bits(), "{x:?} vs textbook {textbook:?}");
            }
        }
    }

    fn square(n: usize, entries: Vec<f64>) -> DMatrix {
        DMatrix::from_row_major(n, n, entries).unwrap()
    }

    /// A dense matrix with entries in ±5.
    fn dense(n: usize) -> impl Strategy<Value = DMatrix> {
        prop::collection::vec(-5.0f64..5.0, n * n).prop_map(move |v| square(n, v))
    }

    /// A SYS-like block: a generator whose rates sit on a band around the
    /// diagonal plus a few far transitions, with the diagonal holding the
    /// negated exit rate (plus a leak into absorbing states, or none) and,
    /// when `gain_column`, a last column of −1 as in a closed class's
    /// gain/bias block. Most entries are structural zeros, and a block
    /// without leak or gain column is singular. Rates repeat a few values,
    /// as the arrival, service and instant rates of a SYS chain do, so
    /// pivot candidates tie and the first-strict-maximum rule is exercised.
    fn sys_like(n: usize) -> impl Strategy<Value = DMatrix> {
        const RATES: [f64; 5] = [1.0 / 6.0, 0.5, 1.0, 2.0, 1e3];
        (
            0usize..3,
            // Half the band's slots are structural zeros too.
            prop::collection::vec(0usize..2 * RATES.len(), n * n),
            prop::collection::vec(0.0f64..1.0, n * n),
            0usize..2,
            0usize..2,
        )
            .prop_map(move |(band, rates, far, leak, gain_column)| {
                let rate = |i: usize| RATES.get(rates[i]).copied().unwrap_or(0.0);
                let leak = if leak == 1 { 1e-3 } else { 0.0 };
                let mut a = DMatrix::zeros(n, n);
                for r in 0..n {
                    for c in (0..n).filter(|&c| c != r) {
                        let near = r.abs_diff(c) <= band + 1;
                        if near || far[r * n + c] < 0.05 {
                            a[(r, c)] = rate(r * n + c);
                        }
                    }
                    a[(r, r)] = -a.row(r).iter().sum::<f64>() - leak;
                    if gain_column == 1 {
                        a[(r, n - 1)] = -1.0;
                    }
                }
                a
            })
    }

    /// A matrix whose diagonal is small against the rest, so nearly every
    /// step swaps rows.
    fn pivot_swapping(n: usize) -> impl Strategy<Value = DMatrix> {
        dense(n).prop_map(move |mut a| {
            for i in 0..n {
                a[(i, i)] *= 1e-6;
            }
            a
        })
    }

    /// A singular matrix: a dense one with a zero column or with one row
    /// an exact power-of-two multiple of another.
    fn singular(n: usize) -> impl Strategy<Value = DMatrix> {
        (dense(n), 0..n, 0..n, 0usize..2).prop_map(move |(mut a, i, j, zero_column)| {
            if zero_column == 1 || i == j {
                for r in 0..n {
                    a[(r, j)] = 0.0;
                }
            } else {
                for c in 0..n {
                    a[(j, c)] = -4.0 * a[(i, c)];
                }
            }
            a
        })
    }

    fn rhs(n: usize) -> impl Strategy<Value = DVector> {
        prop::collection::vec(-10.0f64..10.0, n).prop_map(DVector::from_vec)
    }

    fn rhs4(n: usize) -> impl Strategy<Value = (DVector, DVector, DVector, DVector)> {
        (rhs(n), rhs(n), rhs(n), rhs(n))
    }

    proptest! {
        #[test]
        fn dense_factors_match_reference(
            (a, b) in (1usize..12).prop_flat_map(|n| (dense(n), rhs(n)))
        ) {
            assert_matches_reference(&a, &b);
        }

        #[test]
        fn sys_like_factors_match_reference(
            (a, b) in (2usize..40).prop_flat_map(|n| (sys_like(n), rhs(n)))
        ) {
            assert_matches_reference(&a, &b);
        }

        #[test]
        fn pivot_swapping_factors_match_reference(
            (a, b) in (2usize..12).prop_flat_map(|n| (pivot_swapping(n), rhs(n)))
        ) {
            assert_matches_reference(&a, &b);
        }

        #[test]
        fn singular_matrices_fail_at_the_reference_pivot(
            (a, b) in (2usize..12).prop_flat_map(|n| (singular(n), rhs(n)))
        ) {
            prop_assert!(Lu::new(a.clone()).is_err());
            assert_matches_reference(&a, &b);
        }

        #[test]
        fn pivot_swapping_solve_each_matches_lone_solves(
            (a, b) in (1usize..12).prop_flat_map(|n| (pivot_swapping(n), rhs4(n)))
        ) {
            assert_solve_each_matches_solve(&a, &b);
        }

        #[test]
        fn sys_like_solve_each_matches_lone_solves(
            (a, b) in (2usize..40).prop_flat_map(|n| (sys_like(n), rhs4(n)))
        ) {
            assert_solve_each_matches_solve(&a, &b);
        }
    }

    #[test]
    fn solve_each_rejects_a_wrong_length() {
        let lu = DMatrix::identity(3).lu().unwrap();
        let good = DVector::zeros(3);
        assert!(lu.solve_each([&good, &DVector::zeros(2)]).is_err());
        let [] = lu.solve_each([]).unwrap();
    }

    #[test]
    fn zero_skip_may_flip_only_the_sign_of_an_exact_zero() {
        // Step 0 updates row 1 with factor −1: the reference subtracts
        // −1 · 0 from its −0.0 entry and gets +0.0, the kernel skips the
        // zero pivot-row entry and keeps −0.0. After the swap at step 1 that
        // zero becomes an L entry.
        let a =
            DMatrix::from_rows(&[&[1.0, 0.0, 0.0], &[-1.0, -0.0, 1.0], &[0.0, 1.0, 0.0]]).unwrap();
        let lu = Lu::new(a.clone()).unwrap();
        let reference = reference_lu(a.clone()).unwrap();
        assert_eq!(lu.factors, reference.factors);
        assert_eq!(lu.factors[(2, 1)].to_bits(), (-0.0f64).to_bits());
        assert_eq!(reference.factors[(2, 1)].to_bits(), 0.0f64.to_bits());
        assert_matches_reference(&a, &DVector::from_vec(vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn pivot_ties_keep_the_first_row() {
        // |1| and |−1| tie in column 0: the first strict maximum keeps row 0.
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[-1.0, 3.0]]).unwrap();
        let lu = Lu::new(a.clone()).unwrap();
        assert_eq!(lu.perm, [0, 1]);
        assert_matches_reference(&a, &DVector::from_vec(vec![1.0, 2.0]));
    }

    #[test]
    fn nan_entry_is_invalid_input() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[f64::NAN, 4.0]]).unwrap();
        let err = a.lu().unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }), "{err}");
        assert!(err.to_string().contains("(1, 0) is NaN"), "{err}");
    }

    #[test]
    fn infinite_entry_is_invalid_input_not_singular() {
        let a = DMatrix::from_rows(&[&[1.0, f64::NEG_INFINITY], &[3.0, 4.0]]).unwrap();
        let err = a.lu().unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }), "{err}");
        assert!(err.to_string().contains("(0, 1) is -inf"), "{err}");
    }

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
