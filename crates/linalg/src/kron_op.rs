//! Implicit Kronecker-structured operators.
//!
//! A cluster of `K` interacting Markov components has a joint generator
//! of the shape
//!
//! ```text
//! G  =  ⊕ᵢ Qᵢ  +  Σⱼ cⱼ · ⊗ᵢ Cⱼᵢ
//! ```
//!
//! — a Kronecker *sum* of local dynamics plus a list of Kronecker
//! *product* coupling terms. Materializing `G` costs `Πᵢ nᵢ` rows and
//! dies combinatorially in `K`; every Krylov solver, however, only needs
//! `y = G·x`. [`KroneckerOp`] stores the factors (a few `nᵢ × nᵢ` CSR
//! matrices) and evaluates the matvec with the *shuffle algorithm*: each
//! non-identity factor of a product term is applied along its own tensor
//! axis, so one term costs `O(Σᵢ nnz(Aᵢ) · N / nᵢ)` with `N = Πᵢ nᵢ` —
//! the joint matrix is never formed, and storage stays `O(Σᵢ nnz(Aᵢ))`.
//!
//! The operator plugs into [`crate::krylov::gmres`] (and
//! [`crate::krylov::bicgstab`]) through [`LinearOperator`].
//! [`KroneckerOp::trailing_blocks`] extracts the exact diagonal blocks
//! along the last tensor axis for [`crate::BlockJacobi`], and
//! [`KroneckerOp::diagonal`] gives the exit rates a caller equilibrates
//! rows with.

use crate::error::LinalgError;
use crate::kron::kron_sparse;
use crate::matrix::DMatrix;
use crate::op::LinearOperator;
use crate::sparse::CsrMatrix;
use crate::vector::DVector;

/// One Kronecker-product term `coeff · ⊗ᵢ Aᵢ`, with `None` factors
/// standing for the identity on their axis.
#[derive(Debug, Clone, PartialEq)]
struct KronTerm {
    coeff: f64,
    factors: Vec<Option<CsrMatrix>>,
}

/// An implicit sum of Kronecker-product terms over a fixed axis layout.
///
/// Axis `0` varies slowest in the joint index (the same layout as
/// [`crate::kron`] and [`crate::kron_sum`]): joint state
/// `(s₀, …, s_{K−1})` has index `((s₀·n₁ + s₁)·n₂ + …)`.
///
/// # Examples
///
/// ```
/// use dpm_linalg::{KroneckerOp, CsrMatrix, DVector};
///
/// # fn main() -> Result<(), dpm_linalg::LinalgError> {
/// // Two independent 2-state chains: G = Q ⊕ Q.
/// let q = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0)])?;
/// let op = KroneckerOp::kron_sum_of(&[q.clone(), q])?;
/// assert_eq!(op.dim(), 4);
/// // Row sums of a generator stay zero through the implicit matvec.
/// let ones = DVector::constant(4, 1.0);
/// assert!(op.mul_vec(&ones).norm_inf() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KroneckerOp {
    dims: Vec<usize>,
    dim: usize,
    terms: Vec<KronTerm>,
}

impl KroneckerOp {
    /// Creates an empty operator (the zero matrix) over the given axis
    /// dimensions.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] if `dims` is empty, any axis has
    /// dimension zero, or the joint dimension overflows `usize`.
    pub fn new(dims: Vec<usize>) -> Result<KroneckerOp, LinalgError> {
        if dims.is_empty() {
            return Err(LinalgError::InvalidInput {
                reason: "kronecker operator needs at least one axis".to_owned(),
            });
        }
        let mut dim = 1usize;
        for &n in &dims {
            if n == 0 {
                return Err(LinalgError::InvalidInput {
                    reason: "kronecker axes must have nonzero dimension".to_owned(),
                });
            }
            dim = dim
                .checked_mul(n)
                .ok_or_else(|| LinalgError::InvalidInput {
                    reason: "kronecker joint dimension overflows usize".to_owned(),
                })?;
        }
        Ok(KroneckerOp {
            dims,
            dim,
            terms: Vec::new(),
        })
    }

    /// Convenience constructor for the Kronecker sum `⊕ᵢ Qᵢ` of square
    /// factors: one product term per factor, identity on every other
    /// axis.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for a rectangular factor, plus the
    /// [`KroneckerOp::new`] and [`KroneckerOp::add_product`] validations.
    pub fn kron_sum_of(factors: &[CsrMatrix]) -> Result<KroneckerOp, LinalgError> {
        let dims: Vec<usize> = factors.iter().map(CsrMatrix::nrows).collect();
        let mut op = KroneckerOp::new(dims)?;
        for (axis, q) in factors.iter().enumerate() {
            let mut slots: Vec<Option<CsrMatrix>> = vec![None; factors.len()];
            slots[axis] = Some(q.clone());
            op.add_product(1.0, slots)?;
        }
        Ok(op)
    }

    /// Appends a product term `coeff · ⊗ᵢ Aᵢ`; `None` entries are the
    /// identity on their axis.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] for a non-finite coefficient, a
    /// factor list whose length differs from the axis count, a
    /// rectangular factor, a factor whose size disagrees with its axis,
    /// or a factor with non-finite entries.
    pub fn add_product(
        &mut self,
        coeff: f64,
        factors: Vec<Option<CsrMatrix>>,
    ) -> Result<&mut KroneckerOp, LinalgError> {
        if !coeff.is_finite() {
            return Err(LinalgError::InvalidInput {
                reason: format!("kronecker term coefficient {coeff} is not finite"),
            });
        }
        if factors.len() != self.dims.len() {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "kronecker term has {} factors for {} axes",
                    factors.len(),
                    self.dims.len()
                ),
            });
        }
        for (axis, factor) in factors.iter().enumerate() {
            if let Some(f) = factor {
                if !f.is_square() || f.nrows() != self.dims[axis] {
                    return Err(LinalgError::InvalidInput {
                        reason: format!(
                            "axis {axis} factor is {}x{}, axis dimension is {}",
                            f.nrows(),
                            f.ncols(),
                            self.dims[axis]
                        ),
                    });
                }
                if !f.is_finite() {
                    return Err(LinalgError::InvalidInput {
                        reason: format!("axis {axis} factor has non-finite entries"),
                    });
                }
            }
        }
        self.terms.push(KronTerm { coeff, factors });
        Ok(self)
    }

    /// Per-axis dimensions.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Joint dimension `N = Πᵢ nᵢ`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of product terms.
    #[must_use]
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Bytes of factor storage held by the operator (CSR values, column
    /// indices and row pointers of every stored factor) — the number the
    /// scaling benches compare against the materialized joint matrix.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        let word = std::mem::size_of::<f64>();
        self.terms
            .iter()
            .flat_map(|t| t.factors.iter().flatten())
            .map(|f| f.nnz() * 2 * word + (f.nrows() + 1) * word)
            .sum()
    }

    /// Applies one product term to `x` with the shuffle algorithm.
    fn apply_term(&self, term: &KronTerm, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        let mut scratch = vec![0.0f64; self.dim];
        let mut right = self.dim;
        for (axis, factor) in term.factors.iter().enumerate() {
            let n = self.dims[axis];
            right /= n;
            let Some(f) = factor else {
                continue;
            };
            let left = self.dim / (n * right);
            scratch.iter_mut().for_each(|v| *v = 0.0);
            for l in 0..left {
                let base = l * n * right;
                for s in 0..n {
                    let out_base = base + s * right;
                    for (t, v) in f.row(s) {
                        let in_base = base + t * right;
                        for r in 0..right {
                            scratch[out_base + r] += v * cur[in_base + r];
                        }
                    }
                }
            }
            std::mem::swap(&mut cur, &mut scratch);
        }
        for v in &mut cur {
            *v *= term.coeff;
        }
        cur
    }

    /// Matrix–vector product `y = G·x` without materializing `G`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    #[must_use]
    pub fn mul_vec(&self, x: &DVector) -> DVector {
        assert_eq!(
            x.len(),
            self.dim,
            "kronecker matvec dimension mismatch: vector has {} entries, operator dimension is {}",
            x.len(),
            self.dim
        );
        let mut acc = vec![0.0f64; self.dim];
        for term in &self.terms {
            let y = self.apply_term(term, x.as_slice());
            for (a, v) in acc.iter_mut().zip(y) {
                *a += v;
            }
        }
        DVector::from_vec(acc)
    }

    /// The transposed operator: `(Σ c ⊗ᵢ Aᵢ)ᵀ = Σ c ⊗ᵢ Aᵢᵀ` (transposing
    /// each factor in place preserves the axis layout).
    #[must_use]
    pub fn transpose(&self) -> KroneckerOp {
        KroneckerOp {
            dims: self.dims.clone(),
            dim: self.dim,
            terms: self
                .terms
                .iter()
                .map(|t| KronTerm {
                    coeff: t.coeff,
                    factors: t
                        .factors
                        .iter()
                        .map(|f| f.as_ref().map(CsrMatrix::transpose))
                        .collect(),
                })
                .collect(),
        }
    }

    /// The joint diagonal, assembled from factor diagonals:
    /// `diag(⊗ᵢ Aᵢ) = ⊗ᵢ diag(Aᵢ)` and diagonals add across terms.
    #[must_use]
    pub fn diagonal(&self) -> DVector {
        let mut acc = vec![0.0f64; self.dim];
        for term in &self.terms {
            let mut cur = vec![term.coeff];
            for (axis, factor) in term.factors.iter().enumerate() {
                let n = self.dims[axis];
                let mut next = Vec::with_capacity(cur.len() * n);
                match factor {
                    Some(f) => {
                        let d = f.diagonal();
                        for &c in &cur {
                            for s in 0..n {
                                next.push(c * d[s]);
                            }
                        }
                    }
                    None => {
                        for &c in &cur {
                            for _ in 0..n {
                                next.push(c);
                            }
                        }
                    }
                }
                cur = next;
            }
            for (a, v) in acc.iter_mut().zip(cur) {
                *a += v;
            }
        }
        DVector::from_vec(acc)
    }

    /// The exact diagonal blocks of the operator along the *last* tensor
    /// axis: block `p` (one per joint prefix `(s₀, …, s_{K−2})`) is the
    /// `n_{K−1} × n_{K−1}` submatrix coupling states that share that
    /// prefix. Within a block every leading factor contributes only its
    /// diagonal entry, so block `p` is
    /// `Σⱼ cⱼ · (Π_{i<K−1} Aⱼᵢ[pᵢ, pᵢ]) · Aⱼ,K−1` — cheap to assemble
    /// and the input to [`crate::BlockJacobi`].
    #[must_use]
    pub fn trailing_blocks(&self) -> Vec<DMatrix> {
        // dims is non-empty by construction.
        let n_last = self.dims[self.dims.len() - 1];
        let n_prefix = self.dim / n_last;
        let mut blocks = vec![DMatrix::zeros(n_last, n_last); n_prefix];
        for term in &self.terms {
            // Prefix-diagonal products: outer product of the leading
            // factor diagonals (1.0 on identity axes), scaled by coeff.
            let mut prefix = vec![term.coeff];
            for (axis, factor) in term.factors.iter().take(self.dims.len() - 1).enumerate() {
                let n = self.dims[axis];
                let mut next = Vec::with_capacity(prefix.len() * n);
                match factor {
                    Some(f) => {
                        let d = f.diagonal();
                        for &c in &prefix {
                            for s in 0..n {
                                next.push(c * d[s]);
                            }
                        }
                    }
                    None => {
                        for &c in &prefix {
                            for _ in 0..n {
                                next.push(c);
                            }
                        }
                    }
                }
                prefix = next;
            }
            let last = term.factors.last().and_then(Option::as_ref);
            for (p, block) in blocks.iter_mut().enumerate() {
                let scale = prefix[p];
                match last {
                    Some(f) => {
                        for (r, c, v) in f.iter() {
                            block[(r, c)] += scale * v;
                        }
                    }
                    None => {
                        for s in 0..n_last {
                            block[(s, s)] += scale;
                        }
                    }
                }
            }
        }
        blocks
    }

    /// Materializes the operator as one assembled CSR matrix — intended
    /// for verification gates and small-`K` baselines, not for solving:
    /// the result has `Πᵢ nᵢ` rows.
    ///
    /// # Errors
    ///
    /// Propagates CSR assembly failures (non-finite accumulated entries).
    pub fn materialize(&self) -> Result<CsrMatrix, LinalgError> {
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for term in &self.terms {
            let mut acc = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)])?;
            for (axis, factor) in term.factors.iter().enumerate() {
                let next = match factor {
                    Some(f) => kron_sparse(&acc, f)?,
                    None => {
                        let n = self.dims[axis];
                        let eye: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
                        kron_sparse(&acc, &CsrMatrix::from_triplets(n, n, &eye)?)?
                    }
                };
                acc = next;
            }
            triplets.extend(acc.iter().map(|(r, c, v)| (r, c, term.coeff * v)));
        }
        CsrMatrix::from_triplets(self.dim, self.dim, &triplets)
    }
}

impl LinearOperator for KroneckerOp {
    fn nrows(&self) -> usize {
        self.dim
    }

    fn ncols(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &DVector) -> DVector {
        self.mul_vec(x)
    }

    // Factors are validated finite at construction; products and sums of
    // finite factor entries stay finite for the generator-scale inputs
    // this operator carries, and the Krylov drivers re-check iterates.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kron::{kron_sparse, kron_sum_sparse};

    fn chain(n: usize, up: f64, down: f64) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            let mut exit = 0.0;
            if i + 1 < n {
                t.push((i, i + 1, up));
                exit += up;
            }
            if i > 0 {
                t.push((i, i - 1, down));
                exit += down;
            }
            t.push((i, i, -exit));
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn kron_sum_matvec_matches_materialized_exactly() {
        let a = chain(3, 2.0, 1.0);
        let b = chain(4, 3.0, 5.0);
        let op = KroneckerOp::kron_sum_of(&[a.clone(), b.clone()]).unwrap();
        let dense = kron_sum_sparse(&a, &b).unwrap();
        let x = DVector::from_fn(12, |i| (i as f64) - 4.0);
        let via_op = op.mul_vec(&x);
        let via_mat = dense.mul_vec(&x);
        // Integer-valued rates: every partial sum is exact, so the two
        // evaluation orders agree bit-for-bit.
        assert_eq!(via_op.as_slice(), via_mat.as_slice());
        assert_eq!(op.materialize().unwrap().max_abs_diff(&dense), 0.0);
    }

    #[test]
    fn product_term_matches_kron_sparse() {
        let a = chain(2, 1.0, 4.0);
        let b = chain(3, 2.0, 8.0);
        let mut op = KroneckerOp::new(vec![2, 3]).unwrap();
        op.add_product(2.0, vec![Some(a.clone()), Some(b.clone())])
            .unwrap();
        let mat = op.materialize().unwrap();
        let x = DVector::from_fn(6, |i| 1.0 + i as f64);
        let direct = kron_sparse(&a, &b).unwrap();
        for i in 0..6 {
            assert_eq!(mat.get(0, i), 2.0 * direct.get(0, i));
        }
        assert_eq!(op.mul_vec(&x).as_slice(), mat.mul_vec(&x).as_slice());
    }

    #[test]
    fn transpose_agrees_with_materialized_transpose() {
        let a = chain(3, 2.0, 1.0);
        let b = chain(2, 3.0, 5.0);
        let op = KroneckerOp::kron_sum_of(&[a, b]).unwrap();
        let t = op.transpose().materialize().unwrap();
        let reference = op.materialize().unwrap().transpose();
        assert_eq!(t.max_abs_diff(&reference), 0.0);
    }

    #[test]
    fn diagonal_matches_materialized_diagonal() {
        let a = chain(3, 2.0, 1.0);
        let b = chain(4, 3.0, 5.0);
        let mut op = KroneckerOp::kron_sum_of(&[a.clone(), b.clone()]).unwrap();
        op.add_product(0.5, vec![Some(a), Some(b)]).unwrap();
        let d = op.diagonal();
        let reference = op.materialize().unwrap();
        for i in 0..op.dim() {
            assert!((d[i] - reference.get(i, i)).abs() < 1e-14);
        }
    }

    #[test]
    fn trailing_blocks_match_materialized_blocks() {
        let a = chain(3, 2.0, 1.0);
        let b = chain(4, 3.0, 5.0);
        let mut op = KroneckerOp::kron_sum_of(&[a.clone(), b.clone()]).unwrap();
        op.add_product(1.5, vec![Some(a), Some(b)]).unwrap();
        let blocks = op.trailing_blocks();
        let mat = op.materialize().unwrap();
        assert_eq!(blocks.len(), 3);
        for (p, block) in blocks.iter().enumerate() {
            for r in 0..4 {
                for c in 0..4 {
                    let joint = mat.get(4 * p + r, 4 * p + c);
                    assert!(
                        (block[(r, c)] - joint).abs() < 1e-14,
                        "block {p} entry ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn validation_rejects_malformed_terms() {
        assert!(KroneckerOp::new(Vec::new()).is_err());
        assert!(KroneckerOp::new(vec![2, 0]).is_err());
        let mut op = KroneckerOp::new(vec![2, 3]).unwrap();
        let a = chain(2, 1.0, 1.0);
        // Wrong factor count.
        assert!(op.add_product(1.0, vec![Some(a.clone())]).is_err());
        // Wrong axis size.
        assert!(op.add_product(1.0, vec![None, Some(a.clone())]).is_err());
        // Non-finite coefficient.
        assert!(op.add_product(f64::NAN, vec![Some(a), None]).is_err());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_wrong_length() {
        let op = KroneckerOp::kron_sum_of(&[chain(2, 1.0, 1.0)]).unwrap();
        let _ = op.mul_vec(&DVector::zeros(3));
    }

    #[test]
    fn storage_is_factor_sized() {
        let a = chain(30, 2.0, 1.0);
        let op = KroneckerOp::kron_sum_of(&[a.clone(), a.clone(), a]).unwrap();
        // Joint dimension is 27 000 but storage stays at three factors.
        assert_eq!(op.dim(), 27_000);
        assert!(op.storage_bytes() < 3 * (30 * 3 * 16 + 31 * 8 + 64));
    }
}
