//! Preconditioned Krylov-subspace solvers over any [`LinearOperator`].
//!
//! For generator-shaped systems whose elimination fill outgrows memory
//! (Kronecker fleet chains), or where plain Gauss–Seidel sweeps converge
//! slowly, this module provides the workspace's Krylov tier:
//!
//! * [`Ilu0`] — incomplete LU factorization with zero fill: the factors
//!   live on exactly the sparsity pattern of the input matrix;
//! * [`bicgstab`] — the stabilized bi-conjugate gradient method of
//!   van der Vorst, for general nonsymmetric systems (the CSR stationary
//!   tier);
//! * [`gmres`] — restarted GMRES(60) (Saad & Schultz) with
//!   Givens-rotation least squares and happy-breakdown detection (the
//!   matrix-free fleet solve).
//!
//! Both solvers are right-preconditioned (they iterate on `A·M⁻¹u = b`,
//! `x = M⁻¹u`) so the reported residual is the *true* residual `b − Ax`,
//! not a preconditioned surrogate. They touch `A` only through
//! matrix–vector products, so each takes any [`LinearOperator`] — an
//! assembled [`CsrMatrix`] or an implicit operator such as
//! [`crate::KroneckerOp`] — and any [`Precondition`].
//!
//! # Determinism
//!
//! Every breakdown is handled deterministically: BiCGSTAB restarts from
//! the current iterate with the recomputed residual as the new shadow
//! vector (no random shadow), GMRES's happy breakdown solves exactly in
//! the invariant subspace it found, and a structurally or numerically
//! singular ILU(0) pivot is reported as [`LinalgError::Singular`] so the
//! caller can deterministically retry unpreconditioned. Two runs over the
//! same system produce bit-identical iterates.
//!
//! # Examples
//!
//! ```
//! use dpm_linalg::{krylov, CsrMatrix, DVector};
//!
//! # fn main() -> Result<(), dpm_linalg::LinalgError> {
//! // A small diagonally dominant system.
//! let a = CsrMatrix::from_triplets(
//!     3,
//!     3,
//!     &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0), (1, 2, 1.0), (2, 1, 1.0), (2, 2, 4.0)],
//! )?;
//! let b = DVector::from_vec(vec![1.0, 2.0, 3.0]);
//! let m = krylov::Ilu0::new(&a)?;
//! let result = krylov::bicgstab(&a, &b, Some(&m), &krylov::KrylovOptions::default())?;
//! let residual = &b - &a.mul_vec(&result.solution);
//! assert!(residual.norm() <= 1e-10);
//! # Ok(())
//! # }
//! ```

use crate::error::LinalgError;
use crate::op::{LinearOperator, Precondition};
use crate::sparse::CsrMatrix;
use crate::vector::DVector;

/// Relative pivot floor for [`Ilu0`]: a pivot smaller than this times the
/// largest absolute entry of the input is treated as singular.
const ILU_PIVOT_FLOOR: f64 = 1e-14;

/// Absolute threshold below which a BiCGSTAB inner product (`ρ`, `r̂·v`,
/// `t·t`) counts as a breakdown and triggers a deterministic restart.
const BREAKDOWN_TOL: f64 = 1e-30;

/// Maximum number of deterministic BiCGSTAB restarts before giving up.
const MAX_BICGSTAB_RESTARTS: usize = 8;

/// Relative size of the Arnoldi subdiagonal entry below which GMRES
/// declares a happy breakdown (the Krylov subspace became `A`-invariant).
const HAPPY_BREAKDOWN_TOL: f64 = 1e-14;

/// GMRES restart length `m`: the Arnoldi basis holds at most `m + 1`
/// vectors of the system's length.
const GMRES_RESTART: usize = 60;

/// Options shared by the Krylov solvers.
///
/// `tolerance` is relative to `‖b‖₂`: a solve converges when
/// `‖b − Ax‖₂ ≤ tolerance · ‖b‖₂` (with `max(‖b‖₂, ε)` guarding the
/// zero-right-hand-side case).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovOptions {
    /// Relative residual tolerance. Default `1e-12`.
    pub tolerance: f64,
    /// Total matrix–vector product budget across restarts. Default `10_000`.
    pub max_iterations: usize,
}

impl Default for KrylovOptions {
    fn default() -> KrylovOptions {
        KrylovOptions {
            tolerance: 1e-12,
            max_iterations: 10_000,
        }
    }
}

/// A converged Krylov solve.
#[derive(Debug, Clone, PartialEq)]
pub struct KrylovResult {
    /// The computed solution `x`.
    pub solution: DVector,
    /// Matrix–vector products consumed.
    pub iterations: usize,
    /// True residual norm `‖b − Ax‖₂` of the returned iterate.
    pub residual: f64,
}

/// Incomplete LU factorization with zero fill (ILU(0)).
///
/// The factors `L` (unit lower) and `U` (upper) are stored in place on a
/// copy of the input's CSR pattern: no entry is created outside the
/// original sparsity structure, so memory is exactly `nnz(A)` values and
/// setup is `O(Σᵢ rowᵢ²)` in the worst case but `O(nnz)` for the short
/// rows of generator matrices.
///
/// # Examples
///
/// ```
/// use dpm_linalg::{krylov::Ilu0, CsrMatrix, DVector};
///
/// # fn main() -> Result<(), dpm_linalg::LinalgError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)])?;
/// let m = Ilu0::new(&a)?;
/// // For a triangular matrix ILU(0) is exact: M⁻¹b solves Ax = b.
/// let x = m.apply(&DVector::from_vec(vec![5.0, 3.0]))?;
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ilu0 {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// `diag[i]` indexes the diagonal entry of row `i` inside
    /// `col_idx`/`values`.
    diag: Vec<usize>,
}

impl Ilu0 {
    /// Factors `a` in ILU(0) form.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for a rectangular input and
    /// [`LinalgError::Singular`] when a row has no diagonal entry in the
    /// pattern or elimination drives a pivot below the relative floor —
    /// the deterministic signal for callers to retry unpreconditioned.
    pub fn new(a: &CsrMatrix) -> Result<Ilu0, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(a.nnz());
        let mut values = Vec::with_capacity(a.nnz());
        let mut scale = 0.0f64;
        row_ptr.push(0);
        for i in 0..n {
            for (j, v) in a.row(i) {
                col_idx.push(j);
                values.push(v);
                scale = scale.max(v.abs());
            }
            row_ptr.push(col_idx.len());
        }
        let floor = ILU_PIVOT_FLOOR * scale;
        let mut diag = vec![usize::MAX; n];
        for i in 0..n {
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            match row.binary_search(&i) {
                Ok(pos) => diag[i] = row_ptr[i] + pos,
                Err(_) => return Err(LinalgError::Singular { pivot: i }),
            }
        }
        // IKJ elimination restricted to the existing pattern.
        for i in 0..n {
            let (row_start, row_end) = (row_ptr[i], row_ptr[i + 1]);
            for idx in row_start..row_end {
                let k = col_idx[idx];
                if k >= i {
                    break;
                }
                let pivot = values[diag[k]];
                if !pivot.is_finite() || pivot.abs() <= floor {
                    return Err(LinalgError::Singular { pivot: k });
                }
                let factor = values[idx] / pivot;
                values[idx] = factor;
                for kidx in diag[k] + 1..row_ptr[k + 1] {
                    let j = col_idx[kidx];
                    let row = &col_idx[row_start..row_end];
                    if let Ok(pos) = row.binary_search(&j) {
                        values[row_start + pos] -= factor * values[kidx];
                    }
                }
            }
            let pivot = values[diag[i]];
            if !pivot.is_finite() || pivot.abs() <= floor {
                return Err(LinalgError::Singular { pivot: i });
            }
            // Element growth can overflow an off-diagonal entry even while
            // every pivot stays finite; a non-finite factor would poison
            // every application, so surface it as the downgrade signal.
            if values[row_start..row_end].iter().any(|v| !v.is_finite()) {
                return Err(LinalgError::Singular { pivot: i });
            }
        }
        Ok(Ilu0 {
            n,
            row_ptr,
            col_idx,
            values,
            diag,
        })
    }

    /// Applies the preconditioner: returns `x` with `L U x = r`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `r` has the wrong length.
    pub fn apply(&self, r: &DVector) -> Result<DVector, LinalgError> {
        if r.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                operation: "ilu0 apply",
                left: (self.n, self.n),
                right: (r.len(), 1),
            });
        }
        let mut x = r.clone();
        let xs = x.as_mut_slice();
        // Forward: L y = r with unit diagonal.
        for i in 0..self.n {
            let mut yi = xs[i];
            for idx in self.row_ptr[i]..self.diag[i] {
                yi -= self.values[idx] * xs[self.col_idx[idx]];
            }
            xs[i] = yi;
        }
        // Backward: U x = y.
        for i in (0..self.n).rev() {
            let mut xi = xs[i];
            for idx in self.diag[i] + 1..self.row_ptr[i + 1] {
                xi -= self.values[idx] * xs[self.col_idx[idx]];
            }
            xs[i] = xi / self.values[self.diag[i]];
        }
        Ok(x)
    }

    /// Number of stored factor entries (equals `nnz` of the input).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

impl Precondition for Ilu0 {
    fn precondition(&self, r: &DVector) -> Result<DVector, LinalgError> {
        self.apply(r)
    }
}

/// Applies `m` if present, else copies `r` (identity preconditioner).
fn precondition(m: Option<&dyn Precondition>, r: &DVector) -> Result<DVector, LinalgError> {
    match m {
        Some(m) => m.precondition(r),
        None => Ok(r.clone()),
    }
}

fn check_system(a: &dyn LinearOperator, b: &DVector) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if a.nrows() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            operation: "krylov solve",
            left: a.shape(),
            right: (b.len(), 1),
        });
    }
    if !a.is_finite() || !b.is_finite() {
        return Err(LinalgError::InvalidInput {
            reason: "krylov solve requires finite matrix and right-hand side".to_owned(),
        });
    }
    Ok(())
}

/// `‖b − Ax‖₂` computed fresh (not from solver recursions).
fn true_residual(a: &dyn LinearOperator, x: &DVector, b: &DVector) -> f64 {
    (b - &a.apply(x)).norm()
}

/// Solves `Ax = b` with right-preconditioned BiCGSTAB.
///
/// Breakdowns (`ρ ≈ 0`, `r̂·v ≈ 0`, `t·t ≈ 0`) trigger a deterministic
/// restart: the residual is recomputed from the current iterate and
/// becomes the new shadow vector. After `MAX_BICGSTAB_RESTARTS`
/// consecutive breakdown restarts, or once the iteration budget is
/// exhausted, the method reports [`LinalgError::NotConverged`] carrying
/// the true residual norm.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] /
/// [`LinalgError::InvalidInput`] for malformed systems and
/// [`LinalgError::NotConverged`] as described above.
pub fn bicgstab(
    a: &dyn LinearOperator,
    b: &DVector,
    m: Option<&dyn Precondition>,
    options: &KrylovOptions,
) -> Result<KrylovResult, LinalgError> {
    check_system(a, b)?;
    let n = b.len();
    let b_norm = b.norm();
    let target = options.tolerance * b_norm.max(f64::MIN_POSITIVE);
    let mut x = DVector::zeros(n);
    if b_norm <= 0.0 {
        return Ok(KrylovResult {
            solution: x,
            iterations: 0,
            residual: 0.0,
        });
    }
    let mut r = b.clone();
    let mut r_hat = r.clone();
    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut v = DVector::zeros(n);
    let mut p = DVector::zeros(n);
    let mut iterations = 0usize;
    let mut restarts = 0usize;
    let mut fresh = true; // just (re)started: ρ/α/ω history is invalid

    // Deterministic restart: recompute the residual from x and rebuild the
    // Krylov process around it. Returns false once the restart budget is
    // exhausted.
    let restart = |x: &DVector,
                   r: &mut DVector,
                   r_hat: &mut DVector,
                   v: &mut DVector,
                   p: &mut DVector,
                   fresh: &mut bool,
                   restarts: &mut usize| {
        *restarts += 1;
        if *restarts > MAX_BICGSTAB_RESTARTS {
            return false;
        }
        *r = b - &a.apply(x);
        *r_hat = r.clone();
        *v = DVector::zeros(n);
        *p = DVector::zeros(n);
        *fresh = true;
        true
    };

    while iterations < options.max_iterations {
        // Overflow in α/ω or the updates can poison the recursion with
        // non-finite values; NaN compares false against every tolerance,
        // so without this guard the loop would burn the whole iteration
        // budget. Discard the poisoned iterate and restart — dropping a
        // non-finite x is safe because it carries no usable progress.
        if !r.norm().is_finite() {
            if !x.iter().all(f64::is_finite) {
                x = DVector::zeros(n);
            }
            if !restart(
                &x,
                &mut r,
                &mut r_hat,
                &mut v,
                &mut p,
                &mut fresh,
                &mut restarts,
            ) {
                return Err(LinalgError::NotConverged {
                    iterations,
                    residual: true_residual(a, &x, b),
                });
            }
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
            continue;
        }
        let rho_new = r_hat.dot(&r);
        let rho_scale = r_hat.norm() * r.norm();
        if rho_new.abs() <= BREAKDOWN_TOL.max(f64::EPSILON * rho_scale) {
            if r.norm() <= target {
                break;
            }
            if !restart(
                &x,
                &mut r,
                &mut r_hat,
                &mut v,
                &mut p,
                &mut fresh,
                &mut restarts,
            ) {
                return Err(LinalgError::NotConverged {
                    iterations,
                    residual: true_residual(a, &x, b),
                });
            }
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
            continue;
        }
        if fresh {
            p = r.clone();
            fresh = false;
        } else {
            let beta = (rho_new / rho) * (alpha / omega);
            // p = r + beta (p − ω v)
            p.axpy(-omega, &v);
            p.scale_mut(beta);
            p.axpy(1.0, &r);
        }
        rho = rho_new;
        let p_hat = precondition(m, &p)?;
        v = a.apply(&p_hat);
        iterations += 1;
        let denom = r_hat.dot(&v);
        if denom.abs() <= BREAKDOWN_TOL.max(f64::EPSILON * rho_scale) {
            if !restart(
                &x,
                &mut r,
                &mut r_hat,
                &mut v,
                &mut p,
                &mut fresh,
                &mut restarts,
            ) {
                return Err(LinalgError::NotConverged {
                    iterations,
                    residual: true_residual(a, &x, b),
                });
            }
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
            continue;
        }
        alpha = rho / denom;
        // s = r − α v
        let mut s = r.clone();
        s.axpy(-alpha, &v);
        if s.norm() <= target {
            x.axpy(alpha, &p_hat);
            break;
        }
        let s_hat = precondition(m, &s)?;
        let t = a.apply(&s_hat);
        iterations += 1;
        let tt = t.dot(&t);
        if tt <= BREAKDOWN_TOL {
            x.axpy(alpha, &p_hat);
            if !restart(
                &x,
                &mut r,
                &mut r_hat,
                &mut v,
                &mut p,
                &mut fresh,
                &mut restarts,
            ) {
                return Err(LinalgError::NotConverged {
                    iterations,
                    residual: true_residual(a, &x, b),
                });
            }
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
            continue;
        }
        omega = t.dot(&s) / tt;
        x.axpy(alpha, &p_hat);
        x.axpy(omega, &s_hat);
        r = s;
        r.axpy(-omega, &t);
        if r.norm() <= target {
            break;
        }
        if omega.abs() <= BREAKDOWN_TOL
            && !restart(
                &x,
                &mut r,
                &mut r_hat,
                &mut v,
                &mut p,
                &mut fresh,
                &mut restarts,
            )
        {
            return Err(LinalgError::NotConverged {
                iterations,
                residual: true_residual(a, &x, b),
            });
        }
        if fresh {
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
        }
    }
    // Recursion residuals drift; judge (and report) the true residual.
    let residual = true_residual(a, &x, b);
    if residual <= 10.0 * target && residual.is_finite() {
        Ok(KrylovResult {
            solution: x,
            iterations,
            residual,
        })
    } else {
        Err(LinalgError::NotConverged {
            iterations,
            residual,
        })
    }
}

/// Solves `Ax = b` with restarted, right-preconditioned GMRES(60).
///
/// The Arnoldi least-squares problem is solved with Givens rotations; a
/// subdiagonal `h_{j+1,j}` below `HAPPY_BREAKDOWN_TOL` (relative to the
/// cycle's starting residual) is a *happy breakdown*: the Krylov subspace
/// is `A`-invariant and the projected solve is exact, so the method
/// returns immediately.
///
/// # Errors
///
/// [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] /
/// [`LinalgError::InvalidInput`] for malformed systems and
/// [`LinalgError::NotConverged`] when the iteration budget runs out.
pub fn gmres(
    a: &dyn LinearOperator,
    b: &DVector,
    m: Option<&dyn Precondition>,
    options: &KrylovOptions,
) -> Result<KrylovResult, LinalgError> {
    check_system(a, b)?;
    let n = b.len();
    let b_norm = b.norm();
    let target = options.tolerance * b_norm.max(f64::MIN_POSITIVE);
    let mut x = DVector::zeros(n);
    if b_norm <= 0.0 {
        return Ok(KrylovResult {
            solution: x,
            iterations: 0,
            residual: 0.0,
        });
    }
    let restart = GMRES_RESTART.min(n);
    let mut iterations = 0usize;
    while iterations < options.max_iterations {
        let mut r = b - &a.apply(&x);
        let beta = r.norm();
        if !beta.is_finite() {
            // A non-finite update poisoned the iterate; no further cycle
            // starting from it can recover, so fail fast.
            return Err(LinalgError::NotConverged {
                iterations,
                residual: beta,
            });
        }
        if beta <= target {
            break;
        }
        r.scale_mut(1.0 / beta);
        let mut basis: Vec<DVector> = vec![r];
        // Column-major Hessenberg: h[j] holds column j (length j + 2).
        let mut h: Vec<Vec<f64>> = Vec::with_capacity(restart);
        let mut cs: Vec<f64> = Vec::with_capacity(restart);
        let mut sn: Vec<f64> = Vec::with_capacity(restart);
        let mut g = vec![0.0f64; restart + 1];
        g[0] = beta;
        let mut dim = 0usize;
        let mut happy = false;
        for j in 0..restart {
            if iterations >= options.max_iterations {
                break;
            }
            let z = precondition(m, &basis[j])?;
            let mut w = a.apply(&z);
            iterations += 1;
            let mut col = vec![0.0f64; j + 2];
            for (i, v_i) in basis.iter().enumerate() {
                let hij = w.dot(v_i);
                col[i] = hij;
                w.axpy(-hij, v_i);
            }
            let h_next = w.norm();
            if !h_next.is_finite() {
                // Overflow in the preconditioner apply or the operator;
                // the cycle's basis is unusable. x is still the finite
                // cycle-start iterate, so report its true residual.
                return Err(LinalgError::NotConverged {
                    iterations,
                    residual: true_residual(a, &x, b),
                });
            }
            col[j + 1] = h_next;
            // Apply the accumulated rotations to the new column.
            for i in 0..j {
                let t = cs[i] * col[i] + sn[i] * col[i + 1];
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1];
                col[i] = t;
            }
            let denom = col[j].hypot(col[j + 1]);
            let (c, s) = if denom <= f64::MIN_POSITIVE {
                (1.0, 0.0)
            } else {
                (col[j] / denom, col[j + 1] / denom)
            };
            cs.push(c);
            sn.push(s);
            col[j] = c * col[j] + s * col[j + 1];
            col[j + 1] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;
            h.push(col);
            dim = j + 1;
            if h_next <= HAPPY_BREAKDOWN_TOL * beta {
                happy = true;
                break;
            }
            if g[j + 1].abs() <= target {
                break;
            }
            w.scale_mut(1.0 / h_next);
            basis.push(w);
        }
        if dim == 0 {
            break;
        }
        // Back-substitute the triangularized Hessenberg system.
        let mut y = vec![0.0f64; dim];
        for i in (0..dim).rev() {
            let mut sum = g[i];
            for (k, yk) in y.iter().enumerate().take(dim).skip(i + 1) {
                sum -= h[k][i] * yk;
            }
            y[i] = sum / h[i][i];
        }
        let mut update = DVector::zeros(n);
        for (k, yk) in y.iter().enumerate() {
            update.axpy(*yk, &basis[k]);
        }
        let update = precondition(m, &update)?;
        x.axpy(1.0, &update);
        if happy {
            break;
        }
    }
    let residual = true_residual(a, &x, b);
    if residual <= 10.0 * target && residual.is_finite() {
        Ok(KrylovResult {
            solution: x,
            iterations,
            residual,
        })
    } else {
        Err(LinalgError::NotConverged {
            iterations,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.5));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn nonsymmetric(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0 + (i % 3) as f64));
            if i > 0 {
                t.push((i, i - 1, -1.5));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
            }
            if i + 7 < n {
                t.push((i, i + 7, 0.25));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn residual_of(a: &CsrMatrix, x: &DVector, b: &DVector) -> f64 {
        (b - &a.mul_vec(x)).norm()
    }

    #[test]
    fn ilu0_is_exact_for_triangular_matrices() {
        let a =
            CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0), (2, 2, 8.0)])
                .unwrap();
        let m = Ilu0::new(&a).unwrap();
        let b = DVector::from_vec(vec![3.0, 4.0, 8.0]);
        let x = m.apply(&b).unwrap();
        assert!(residual_of(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn ilu0_keeps_the_input_pattern() {
        let a = nonsymmetric(40);
        let m = Ilu0::new(&a).unwrap();
        assert_eq!(m.nnz(), a.nnz());
    }

    #[test]
    fn ilu0_rejects_missing_diagonal() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        match Ilu0::new(&a) {
            Err(LinalgError::Singular { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn ilu0_rejects_numerically_singular_pivot() {
        // Row 1 becomes exactly zero after eliminating with row 0.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)])
                .unwrap();
        assert!(matches!(Ilu0::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn bicgstab_solves_a_spd_system() {
        let a = laplacian_1d(64);
        let b = DVector::from_fn(64, |i| 1.0 + (i % 5) as f64);
        let m = Ilu0::new(&a).unwrap();
        let out = bicgstab(&a, &b, Some(&m), &KrylovOptions::default()).unwrap();
        assert!(out.residual <= 1e-10 * b.norm());
        assert!(residual_of(&a, &out.solution, &b) <= 1e-10 * b.norm());
    }

    #[test]
    fn bicgstab_solves_a_nonsymmetric_system_unpreconditioned() {
        let a = nonsymmetric(80);
        let b = DVector::from_fn(80, |i| (i as f64).sin());
        let out = bicgstab(&a, &b, None, &KrylovOptions::default()).unwrap();
        assert!(residual_of(&a, &out.solution, &b) <= 1e-9 * b.norm());
    }

    #[test]
    fn gmres_solves_a_nonsymmetric_system() {
        let a = nonsymmetric(80);
        let b = DVector::from_fn(80, |i| 1.0 / (1.0 + i as f64));
        let m = Ilu0::new(&a).unwrap();
        let out = gmres(&a, &b, Some(&m), &KrylovOptions::default()).unwrap();
        assert!(residual_of(&a, &out.solution, &b) <= 1e-10 * b.norm());
    }

    #[test]
    fn gmres_happy_breakdown_on_identity() {
        let n = 10;
        let t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
        let a = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let b = DVector::from_fn(n, |i| i as f64 + 1.0);
        let out = gmres(&a, &b, None, &KrylovOptions::default()).unwrap();
        // One matvec: the first Arnoldi step is already invariant.
        assert_eq!(out.iterations, 1);
        assert!(residual_of(&a, &out.solution, &b) <= 1e-12 * b.norm());
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = laplacian_1d(8);
        let b = DVector::zeros(8);
        let out = bicgstab(&a, &b, None, &KrylovOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.solution.iter().all(|v| v == 0.0));
        let out = gmres(&a, &b, None, &KrylovOptions::default()).unwrap();
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn singular_system_reports_not_converged_not_panic() {
        // Rank-deficient: second row is a multiple of the first, and the
        // right-hand side is inconsistent.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 2.0)])
                .unwrap();
        let b = DVector::from_vec(vec![1.0, 0.0]);
        let opts = KrylovOptions {
            max_iterations: 50,
            ..KrylovOptions::default()
        };
        assert!(matches!(
            bicgstab(&a, &b, None, &opts),
            Err(LinalgError::NotConverged { .. })
        ));
        assert!(matches!(
            gmres(&a, &b, None, &opts),
            Err(LinalgError::NotConverged { .. })
        ));
    }

    #[test]
    fn bicgstab_rho_breakdown_restarts_deterministically() {
        // A skew-symmetric-dominant system drives ρ toward zero quickly;
        // the solve must either converge or fail cleanly — and twice in a
        // row it must produce bit-identical output.
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 0, -1.0),
                (2, 3, 1.0),
                (3, 2, -1.0),
                (0, 0, 1e-8),
                (1, 1, 1e-8),
                (2, 2, 1e-8),
                (3, 3, 1e-8),
            ],
        )
        .unwrap();
        let b = DVector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let opts = KrylovOptions {
            max_iterations: 200,
            ..KrylovOptions::default()
        };
        let first = bicgstab(&a, &b, None, &opts);
        let second = bicgstab(&a, &b, None, &opts);
        assert_eq!(first, second);
        if let Ok(out) = first {
            assert!(residual_of(&a, &out.solution, &b) <= 1e-8 * b.norm());
        }
    }

    #[test]
    fn results_are_bit_identical_across_runs() {
        let a = nonsymmetric(50);
        let b = DVector::from_fn(50, |i| (i as f64 * 0.37).cos());
        let m = Ilu0::new(&a).unwrap();
        let r1 = bicgstab(&a, &b, Some(&m), &KrylovOptions::default()).unwrap();
        let r2 = bicgstab(&a, &b, Some(&m), &KrylovOptions::default()).unwrap();
        assert_eq!(r1, r2);
        let g1 = gmres(&a, &b, Some(&m), &KrylovOptions::default()).unwrap();
        let g2 = gmres(&a, &b, Some(&m), &KrylovOptions::default()).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let a = laplacian_1d(4);
        let b = DVector::zeros(5);
        assert!(matches!(
            bicgstab(&a, &b, None, &KrylovOptions::default()),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let m = Ilu0::new(&a).unwrap();
        assert!(matches!(
            m.apply(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
