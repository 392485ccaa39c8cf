//! LU decomposition with partial pivoting, eliminated over sparse rows.

use std::cmp::Ordering;

use crate::{DMatrix, DVector, LinalgError};

/// Relative pivot threshold below which a matrix is treated as singular.
const PIVOT_EPS: f64 = 1e-13;

/// One stored entry of a sparse row: `(column, value)`.
type Entry = (usize, f64);

/// An LU decomposition `P * A = L * U` with partial (row) pivoting.
///
/// The decomposition is computed once and can then be reused for multiple
/// solves against different right-hand sides — the access pattern of policy
/// iteration, which re-solves the evaluation equations every improvement
/// step.
///
/// Only stored entries are kept and touched: the factors of a sparse
/// matrix hold its nonzeros plus the fill elimination creates, and the
/// pivots, updates and substitutions are exactly those of the textbook
/// dense loop (see [`Lu::from_rows`]).
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
    /// The packed factors in pivot order: row `i` is
    /// `entries[row_ptr[i]..row_ptr[i + 1]]` in ascending column order —
    /// its L multipliers (columns below `i`, unit diagonal implied), its
    /// pivot at `diag[i]`, then its U entries.
    entries: Vec<Entry>,
    row_ptr: Vec<usize>,
    diag: Vec<usize>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// +1.0 or -1.0 depending on the parity of the permutation.
    sign: f64,
}

impl Lu {
    /// Factorizes `a`; its `+0.0` entries are the structural zeros.
    ///
    /// Equivalent to [`DMatrix::lu`]; see [`Lu::from_rows`] for the
    /// elimination.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square,
    /// [`LinalgError::InvalidInput`] if an entry is NaN or infinite, or
    /// [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn new(a: DMatrix) -> Result<Self, LinalgError> {
        Self::from_dense(&a)
    }

    /// Gathers every entry of `a` but the `+0.0` ones into sorted rows and
    /// factors them. A `−0.0` is stored, so its sign reaches the factors
    /// as it does in the dense loop.
    pub(crate) fn from_dense(a: &DMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let rows = a.as_slice().chunks_exact(n.max(1)).map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(_, x)| x.to_bits() != 0)
                .map(|(c, &x)| (c, x))
        });
        Self::from_rows(n, rows)
    }

    /// Factorizes the `n × n` matrix whose row `r` is the `r`-th of
    /// `rows`: its `(column, value)` entries in strictly ascending column
    /// order, every other entry zero.
    ///
    /// The elimination makes the textbook dense loop's choices and
    /// arithmetic on stored entries only:
    ///
    /// * the pivot of step `k` is the first strict maximum of `|a_rk|`
    ///   over positions `≥ k` (ties go to the lowest position), rejected
    ///   as [`LinalgError::Singular`] at or below
    ///   `PIVOT_EPS · max(1, max |a_ij|)`;
    /// * each row below with an entry in column `k` stores its factor
    ///   `a_rk / pivot` there and, unless the factor is zero, updates
    ///   `a_rc -= factor · u` for each nonzero pivot-row entry `u` right
    ///   of `k`; a column the row lacks is filled with `0.0 − factor · u`,
    ///   the dense loop's update of its `+0.0`.
    ///
    /// Each entry thus sees the same updates in the same order as in the
    /// dense loop, so every stored factor equals the dense loop's (a
    /// skipped `±0` update can flip only the sign of an exact zero); the
    /// entries left unstored are the dense loop's zeros. Each row waits
    /// in the bucket of its next unreduced column, and the pivot row is
    /// scattered once per step, as in the GTH state reduction of the
    /// stationary solver, so the cost follows the fill rather than `n³`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `rows` does not yield `n`
    /// rows, a column is `≥ n`, a row's columns are not strictly
    /// ascending, or an entry is NaN or infinite;
    /// [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn from_rows<R>(n: usize, rows: impl IntoIterator<Item = R>) -> Result<Self, LinalgError>
    where
        R: IntoIterator<Item = (usize, f64)>,
    {
        let (rows, scale) = gather(n, rows)?;
        eliminate(rows, scale)
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.perm.len()
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
    /// The substitutions fold over each row's stored entries in ascending
    /// column order, and every right-hand side runs the same subtractions
    /// in the same order as a lone [`Lu::solve`], so each `x_r` has its
    /// bits.
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
        // Apply permutation: y = P b, the K entries of a row side by side.
        let mut x: Vec<[f64; K]> = self.perm.iter().map(|&p| b.map(|v| v[p])).collect();
        // Forward substitution with unit lower triangle.
        for i in 1..n {
            let (done, rest) = x.split_at_mut(i);
            rest[0] = self.entries[self.row_ptr[i]..self.diag[i]]
                .iter()
                .fold(rest[0], |sum, &(c, l)| sub_scaled(sum, l, &done[c]));
        }
        // Back substitution with upper triangle.
        for i in (0..n).rev() {
            let at = self.diag[i];
            let (head, done) = x.split_at_mut(i + 1);
            let sum = self.entries[at + 1..self.row_ptr[i + 1]]
                .iter()
                .fold(head[i], |sum, &(c, u)| sub_scaled(sum, u, &done[c - i - 1]));
            head[i] = sum.map(|s| s / self.entries[at].1);
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
        self.diag
            .iter()
            .fold(self.sign, |d, &at| d * self.entries[at].1)
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

/// No row: the end of a bucket's list.
const NONE: usize = usize::MAX;

/// A workspace row of the elimination.
#[derive(Debug)]
struct Row {
    /// Its entries in ascending column order: the L multipliers found so
    /// far, then the unreduced rest.
    entries: Vec<Entry>,
    /// How many leading entries are L multipliers.
    lower: usize,
    /// Where the row sits in the permutation: the inverse of `perm`.
    position: usize,
    /// The next row in the same bucket, or [`NONE`].
    next: usize,
}

/// A column's share of the elimination workspace.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// The first row in the column's bucket, or [`NONE`].
    bucket: usize,
    /// The pivot row scattered densely: while `step` is the current step,
    /// `pivot_u` is the pivot row's nonzero entry in this column.
    step: usize,
    pivot_u: f64,
}

/// Checks that `rows` describe an `n × n` matrix — `n` rows, columns in
/// range and strictly ascending, every entry finite — and collects them
/// as workspace rows. Returns those and the singularity threshold's
/// scale, `max(1, max |a_ij|)`. A NaN would otherwise factor
/// "successfully" into NaN solves, and an infinity would report a
/// misleading singular pivot.
fn gather<R>(n: usize, rows: impl IntoIterator<Item = R>) -> Result<(Vec<Row>, f64), LinalgError>
where
    R: IntoIterator<Item = Entry>,
{
    let invalid = |reason: String| Err(LinalgError::InvalidInput { reason });
    let rows = rows.into_iter();
    let mut gathered = Vec::with_capacity(rows.size_hint().0.min(n));
    let mut scale = 1.0f64;
    for (r, row) in rows.enumerate() {
        if r == n {
            return invalid(format!("LU input has more than {n} rows"));
        }
        // Room for about twice a generator row's entries, so that most
        // rows of a small block take their fill without reallocating.
        let mut entries: Vec<Entry> = Vec::with_capacity(8);
        for (c, x) in row {
            if c >= n {
                return invalid(format!("LU input entry ({r}, {c}) is outside {n}x{n}"));
            }
            if let Some(&(p, _)) = entries.last().filter(|&&(p, _)| c <= p) {
                return invalid(format!("LU input row {r} has column {c} after column {p}"));
            }
            if !x.is_finite() {
                return invalid(format!("LU input entry ({r}, {c}) is {x}"));
            }
            scale = scale.max(x.abs());
            entries.push((c, x));
        }
        gathered.push(Row {
            entries,
            lower: 0,
            position: r,
            next: NONE,
        });
    }
    if gathered.len() != n {
        return invalid(format!(
            "LU input has {} rows, expected {n}",
            gathered.len()
        ));
    }
    Ok((gathered, scale))
}

/// The elimination of [`Lu::from_rows`] on gathered rows.
fn eliminate(mut rows: Vec<Row>, scale: f64) -> Result<Lu, LinalgError> {
    let n = rows.len();
    // An unpivoted row's next entry is its first one right of its L
    // multipliers, and the row waits in the bucket of that entry's column:
    // before step `k` bucket `k` lists exactly the unpivoted rows with an
    // entry in column `k`. Buckets are singly linked through `Row::next`.
    let mut columns = vec![
        Column {
            bucket: NONE,
            step: NONE,
            pivot_u: 0.0,
        };
        n
    ];
    for (r, row) in rows.iter_mut().enumerate() {
        if let Some(&(c, _)) = row.entries.first() {
            row.next = columns[c].bucket;
            columns[c].bucket = r;
        }
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    // The pivot row's nonzero entries right of the pivot.
    let mut pivot_nz: Vec<Entry> = Vec::new();
    let mut merged: Vec<Entry> = Vec::new();

    for k in 0..n {
        let mut pivot_pos = k;
        let mut pivot_abs = 0.0f64;
        let mut r = columns[k].bucket;
        while r != NONE {
            let row = &rows[r];
            let v = row.entries[row.lower].1.abs();
            // Magnitudes are non-negative and finite, where `total_cmp` is
            // the numeric order.
            match v.total_cmp(&pivot_abs) {
                Ordering::Greater => (pivot_abs, pivot_pos) = (v, row.position),
                Ordering::Equal if row.position < pivot_pos => pivot_pos = row.position,
                _ => {}
            }
            r = row.next;
        }
        if pivot_abs <= PIVOT_EPS * scale {
            return Err(LinalgError::Singular { pivot: k });
        }
        if pivot_pos != k {
            perm.swap(k, pivot_pos);
            rows[perm[k]].position = k;
            rows[perm[pivot_pos]].position = pivot_pos;
            sign = -sign;
        }
        let pivot_row = &rows[perm[k]];
        let pivot = pivot_row.entries[pivot_row.lower].1;
        pivot_nz.clear();
        for &(c, u) in &pivot_row.entries[pivot_row.lower + 1..] {
            if !is_zero(u) {
                pivot_nz.push((c, u));
                columns[c].step = k;
                columns[c].pivot_u = u;
            }
        }
        // Each row leaves bucket `k` for a later one, so read its
        // successor first.
        let mut next = columns[k].bucket;
        while next != NONE {
            let r = next;
            let row = &mut rows[r];
            next = row.next;
            if row.position == k {
                continue;
            }
            let at = row.lower;
            row.lower += 1;
            let factor = row.entries[at].1 / pivot;
            row.entries[at].1 = factor;
            if !is_zero(factor) {
                let mut hits = 0;
                for (c, a) in &mut row.entries[at + 1..] {
                    let column = &columns[*c];
                    if column.step == k {
                        *a -= factor * column.pivot_u;
                        hits += 1;
                    }
                }
                if hits < pivot_nz.len() {
                    // Fill: rebuild the tail with the missing pivot
                    // columns inserted in order.
                    merged.clear();
                    let mut tail = row.entries[at + 1..].iter().copied().peekable();
                    for &(c, u) in &pivot_nz {
                        while let Some(entry) = tail.next_if(|&(j, _)| j < c) {
                            merged.push(entry);
                        }
                        let entry = tail.next_if(|&(j, _)| j == c);
                        merged.push(entry.unwrap_or((c, 0.0 - factor * u)));
                    }
                    merged.extend(tail);
                    row.entries.truncate(at + 1);
                    row.entries.append(&mut merged);
                }
            }
            if let Some(&(c, _)) = row.entries.get(row.lower) {
                row.next = columns[c].bucket;
                columns[c].bucket = r;
            }
        }
    }

    let mut entries = Vec::with_capacity(rows.iter().map(|row| row.entries.len()).sum());
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut diag = Vec::with_capacity(n);
    row_ptr.push(0);
    for &r in &perm {
        diag.push(entries.len() + rows[r].lower);
        entries.extend_from_slice(&rows[r].entries);
        row_ptr.push(entries.len());
    }
    Ok(Lu {
        entries,
        row_ptr,
        diag,
        perm,
        sign,
    })
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The textbook factors: packed L and U in a dense matrix, the row
    /// permutation and its sign.
    struct Textbook {
        factors: DMatrix,
        perm: Vec<usize>,
        sign: f64,
    }

    /// The textbook elimination the kernel must reproduce: the same pivot
    /// choice, update expression and visiting order, but every column of
    /// every row below the pivot, through the 2-D index.
    fn reference_lu(mut a: DMatrix) -> Result<Textbook, LinalgError> {
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
        Ok(Textbook {
            factors: a,
            perm,
            sign,
        })
    }

    /// The textbook substitutions over the 2-D index.
    fn reference_solve(lu: &Textbook, b: &DVector) -> DVector {
        let n = lu.perm.len();
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

    /// The textbook determinant: the sign times the pivots in order.
    fn reference_det(lu: &Textbook) -> f64 {
        let mut d = lu.sign;
        for i in 0..lu.perm.len() {
            d *= lu.factors[(i, i)];
        }
        d
    }

    impl Lu {
        /// The packed factors as a dense matrix; unstored entries read `+0.0`.
        fn packed(&self) -> DMatrix {
            let n = self.dim();
            let mut out = DMatrix::zeros(n, n);
            for i in 0..n {
                for &(c, x) in &self.entries[self.row_ptr[i]..self.row_ptr[i + 1]] {
                    out[(i, c)] = x;
                }
            }
            out
        }
    }

    /// `a`'s rows as [`Lu::from_rows`] input: its nonzeros, plus an
    /// explicitly stored `+0.0` wherever `stored_zero` is 1.
    fn rows_of(a: &DMatrix, stored_zero: &[usize]) -> Vec<Vec<Entry>> {
        let n = a.ncols();
        (0..a.nrows())
            .map(|r| {
                (0..n)
                    .filter(|&c| a[(r, c)] != 0.0 || stored_zero[r * n + c] == 1)
                    .map(|c| (c, a[(r, c)]))
                    .collect()
            })
            .collect()
    }

    /// Asserts that [`Lu::new`] on `a`, [`Lu::from_rows`] on its rows with
    /// some explicit zeros, and the textbook loop factor alike: the same
    /// singular pivot, or the same permutation and sign, factors equal
    /// entrywise (so at most the sign of an exact zero differs), and
    /// determinants, lone solves and one four-vector pass equal bit for
    /// bit.
    fn assert_paths_agree(a: &DMatrix, stored_zero: &[usize], b: &[DVector; 4]) {
        let n = a.nrows();
        let paths = [
            ("new", Lu::new(a.clone())),
            ("from_rows", Lu::from_rows(n, rows_of(a, stored_zero))),
        ];
        let textbook = reference_lu(a.clone());
        for (name, lu) in paths {
            let (lu, textbook) = match (lu, &textbook) {
                (Ok(lu), Ok(textbook)) => (lu, textbook),
                (Err(e), Err(f)) => {
                    prop_assert_eq!(&e, f, "{}", name);
                    continue;
                }
                (got, want) => panic!("{name} {got:?}, textbook {:?}", want.as_ref().err()),
            };
            prop_assert_eq!(&lu.perm, &textbook.perm, "{}", name);
            prop_assert_eq!(lu.sign.to_bits(), textbook.sign.to_bits());
            prop_assert_eq!(&lu.packed(), &textbook.factors, "{}", name);
            prop_assert_eq!(lu.det().to_bits(), reference_det(textbook).to_bits());
            let each = lu.solve_each([&b[0], &b[1], &b[2], &b[3]]).unwrap();
            for (b, x) in b.iter().zip(&each) {
                let lone = lu.solve(b).unwrap();
                let want = reference_solve(textbook, b);
                for ((xi, yi), zi) in x.iter().zip(lone.iter()).zip(want.iter()) {
                    prop_assert_eq!(xi.to_bits(), zi.to_bits(), "{name} {x:?} vs {want:?}");
                    prop_assert_eq!(yi.to_bits(), zi.to_bits(), "{name} {lone:?} vs {want:?}");
                }
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

    /// A sparse matrix (about one entry in four) whose values come from
    /// a few small magnitudes, most of them ±1: pivot candidates tie in
    /// magnitude, updates cancel exactly into stored zeros, and many
    /// draws are singular.
    fn sparse(n: usize) -> impl Strategy<Value = DMatrix> {
        const VALUES: [f64; 8] = [1.0, -1.0, 1.0, -1.0, 2.0, -0.5, 3.0, -4.0];
        (
            prop::collection::vec(0usize..4 * VALUES.len(), n * n),
            0usize..2,
        )
            .prop_map(move |(picks, diagonal)| {
                let mut a = square(
                    n,
                    picks
                        .iter()
                        .map(|&p| VALUES.get(p).copied().unwrap_or(0.0))
                        .collect(),
                );
                if diagonal == 1 {
                    for i in 0..n {
                        a[(i, i)] = VALUES[picks[i * n + i] % VALUES.len()];
                    }
                }
                a
            })
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

    /// Which entries [`rows_of`] stores as explicit zeros: about one in ten.
    fn stored_zeros(n: usize) -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(0usize..10, n * n)
            .prop_map(|v| v.into_iter().map(|x| usize::from(x == 0)).collect())
    }

    fn rhs(n: usize) -> impl Strategy<Value = DVector> {
        prop::collection::vec(-10.0f64..10.0, n).prop_map(DVector::from_vec)
    }

    fn rhs4(n: usize) -> impl Strategy<Value = [DVector; 4]> {
        (rhs(n), rhs(n), rhs(n), rhs(n)).prop_map(|(a, b, c, d)| [a, b, c, d])
    }

    proptest! {
        #[test]
        fn dense_factors_match_reference(
            (a, z, b) in (1usize..12).prop_flat_map(|n| (dense(n), stored_zeros(n), rhs4(n)))
        ) {
            assert_paths_agree(&a, &z, &b);
        }

        #[test]
        fn sparse_factors_match_reference(
            (a, z, b) in (1usize..30).prop_flat_map(|n| (sparse(n), stored_zeros(n), rhs4(n)))
        ) {
            assert_paths_agree(&a, &z, &b);
        }

        #[test]
        fn sys_like_factors_match_reference(
            (a, z, b) in (2usize..40).prop_flat_map(|n| (sys_like(n), stored_zeros(n), rhs4(n)))
        ) {
            assert_paths_agree(&a, &z, &b);
        }

        #[test]
        fn pivot_swapping_factors_match_reference(
            (a, z, b) in (1usize..12).prop_flat_map(|n| {
                (pivot_swapping(n), stored_zeros(n), rhs4(n))
            })
        ) {
            assert_paths_agree(&a, &z, &b);
        }

        #[test]
        fn singular_matrices_fail_at_the_reference_pivot(
            (a, z, b) in (2usize..12).prop_flat_map(|n| (singular(n), stored_zeros(n), rhs4(n)))
        ) {
            prop_assert!(Lu::new(a.clone()).is_err());
            assert_paths_agree(&a, &z, &b);
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
        assert_eq!(lu.packed(), reference.factors);
        assert_eq!(lu.packed()[(2, 1)].to_bits(), (-0.0f64).to_bits());
        assert_eq!(reference.factors[(2, 1)].to_bits(), 0.0f64.to_bits());
        let b = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_paths_agree(&a, &[0; 9], &[b.clone(), b.clone(), b.clone(), b]);
    }

    #[test]
    fn exact_cancellation_stays_stored() {
        // Step 0 subtracts row 0 from row 1 and cancels its column 1 to an
        // exact zero, which stays stored: it is a pivot candidate at step 1
        // (row 2 wins) and row 1's L multiplier 0/1 there.
        let a =
            DMatrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap();
        let lu = Lu::new(a.clone()).unwrap();
        assert_eq!(lu.perm, [0, 2, 1]);
        assert!(lu.entries[lu.row_ptr[2]..lu.row_ptr[3]].contains(&(1, 0.0)));
        let b = DVector::from_vec(vec![1.0, -2.0, 3.0]);
        assert_paths_agree(&a, &[0; 9], &[b.clone(), b.clone(), b.clone(), b]);
    }

    #[test]
    fn pivot_ties_keep_the_first_row() {
        // |1| and |−1| tie in column 0: the first strict maximum keeps row 0.
        // Row 2's −1 enters column 0's row list first and still loses.
        let a =
            DMatrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 3.0, 1.0], &[-1.0, 3.0, 5.0]]).unwrap();
        let lu = Lu::from_rows(
            3,
            vec![
                vec![(0, 1.0), (1, 2.0)],
                vec![(1, 3.0), (2, 1.0)],
                vec![(0, -1.0), (1, 3.0), (2, 5.0)],
            ],
        )
        .unwrap();
        assert_eq!(lu.perm[0], 0);
        let b = DVector::from_vec(vec![1.0, 2.0, 4.0]);
        assert_paths_agree(&a, &[0; 9], &[b.clone(), b.clone(), b.clone(), b]);
    }

    /// The reason of `from_rows`' `InvalidInput` on `rows`.
    fn rejection(n: usize, rows: Vec<Vec<Entry>>) -> String {
        match Lu::from_rows(n, rows) {
            Err(LinalgError::InvalidInput { reason }) => reason,
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn from_rows_rejects_a_wrong_row_count() {
        let reason = rejection(2, vec![vec![(0, 1.0)]]);
        assert_eq!(reason, "LU input has 1 rows, expected 2");
        let reason = rejection(1, vec![vec![(0, 1.0)], vec![(0, 1.0)]]);
        assert_eq!(reason, "LU input has more than 1 rows");
        // A huge claimed size is rejected, not allocated for.
        let reason = rejection(usize::MAX, vec![vec![(0, 1.0)]]);
        assert_eq!(
            reason,
            format!("LU input has 1 rows, expected {}", usize::MAX)
        );
    }

    #[test]
    fn from_rows_rejects_a_column_out_of_range() {
        let reason = rejection(2, vec![vec![(0, 1.0)], vec![(2, 1.0)]]);
        assert_eq!(reason, "LU input entry (1, 2) is outside 2x2");
    }

    #[test]
    fn from_rows_rejects_unsorted_columns() {
        let reason = rejection(2, vec![vec![(1, 1.0), (0, 1.0)], vec![(1, 1.0)]]);
        assert_eq!(reason, "LU input row 0 has column 0 after column 1");
    }

    #[test]
    fn from_rows_rejects_duplicate_columns() {
        let reason = rejection(2, vec![vec![(0, 1.0)], vec![(1, 1.0), (1, 2.0)]]);
        assert_eq!(reason, "LU input row 1 has column 1 after column 1");
    }

    #[test]
    fn from_rows_rejects_nan() {
        let reason = rejection(2, vec![vec![(0, 1.0)], vec![(0, f64::NAN), (1, 1.0)]]);
        assert_eq!(reason, "LU input entry (1, 0) is NaN");
    }

    #[test]
    fn from_rows_rejects_infinity() {
        let reason = rejection(2, vec![vec![(0, 1.0), (1, f64::INFINITY)], vec![(1, 1.0)]]);
        assert_eq!(reason, "LU input entry (0, 1) is inf");
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
    fn empty_matrix_factors() {
        let lu = Lu::from_rows(0, Vec::<Vec<Entry>>::new()).unwrap();
        assert_eq!(lu.dim(), 0);
        assert_eq!(lu.det(), 1.0);
        assert_eq!(lu.solve(&DVector::zeros(0)).unwrap().len(), 0);
        assert_eq!(DMatrix::zeros(0, 0).lu().unwrap(), lu);
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
