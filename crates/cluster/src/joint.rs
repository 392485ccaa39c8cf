//! Matrix-free stationary analysis of the joint fleet chain.
//!
//! The joint generator of a K-server fleet lives on `n^K` states; even at
//! `n = 6, K = 8` its materialized CSR form holds tens of millions of
//! entries, while the [`KroneckerOp`] form holds a few hundred factor
//! entries. This module solves `πG = 0, Σπ = 1` against the implicit
//! operator with one fixed recipe: the normalization-row system of
//! `dpm-ctmc`'s Krylov tier is rebuilt matrix-free (transpose the
//! operator, equilibrate rows by the diagonal, overwrite the last row with
//! the normalization constraint), preconditioned by block Jacobi on the
//! operator's trailing tensor axis, and solved by GMRES(60) through
//! [`stationary::solve_normalized`] — the refinement and finishing the
//! CSR tier runs too.
//!
//! [`solve_joint_materialized`] is the self-check twin: it materializes
//! the same operator into a [`SparseGenerator`] and routes it through the
//! stock [`Solver`] builder. The scaling bench gates the two paths against
//! each other at small `K` before trusting the matrix-free numbers at
//! fleet scale.

use dpm_ctmc::stationary::{self, Method, Solver};
use dpm_ctmc::SparseGenerator;
use dpm_linalg::krylov::{gmres, KrylovOptions};
use dpm_linalg::{BlockJacobi, DVector, KroneckerOp, LinearOperator, Precondition};

use crate::error::ClusterError;
use crate::model::ClusterModel;

/// Options for [`solve_joint_matrix_free`]. The solve has a single
/// recipe, so there is nothing to set; the type keeps the call shape
/// stable.
#[derive(Debug, Clone, Copy, Default)]
pub struct JointOptions {}

/// Result of a matrix-free joint solve.
#[derive(Debug, Clone)]
pub struct JointSolution {
    pi: DVector,
    iterations: usize,
    residual: f64,
    operator_bytes: usize,
    escalated: bool,
}

impl JointSolution {
    /// The joint stationary distribution over `n^K` tuples.
    #[must_use]
    pub fn pi(&self) -> &DVector {
        &self.pi
    }

    /// Krylov iterations spent (including refinement sweeps).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Infinity norm of the balance residual `‖πG‖∞`.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Bytes of factor storage the implicit operator held — the
    /// matrix-free side of the bench's peak-matrix-bytes axis.
    #[must_use]
    pub fn operator_bytes(&self) -> usize {
        self.operator_bytes
    }

    /// Whether a block-Jacobi factorization was singular, so GMRES ran
    /// unpreconditioned.
    #[must_use]
    pub fn escalated(&self) -> bool {
        self.escalated
    }
}

/// The normalization-row system over an implicit transposed generator:
/// row `j < n−1` is row `j` of `Gᵀ` scaled by `1/max(|G[j,j]|, 1)`, row
/// `n−1` is the all-ones normalization row. The diagonal stands in for
/// the CSR tier's row maximum (unavailable without materializing); for a
/// generator the diagonal carries the full exit rate, so a scaled row is
/// the balance equation solved for `π_j`, and its residual measures the
/// error in `π_j` itself.
struct NormalizedOp<'a> {
    transposed: &'a KroneckerOp,
    scale: Vec<f64>,
}

impl<'a> NormalizedOp<'a> {
    fn new(transposed: &'a KroneckerOp, diagonal: &DVector) -> NormalizedOp<'a> {
        let scale = (0..transposed.dim())
            .map(|j| {
                let d = diagonal[j].abs();
                if d > 1.0 {
                    1.0 / d
                } else {
                    1.0
                }
            })
            .collect();
        NormalizedOp { transposed, scale }
    }
}

impl LinearOperator for NormalizedOp<'_> {
    fn nrows(&self) -> usize {
        self.transposed.dim()
    }

    fn ncols(&self) -> usize {
        self.transposed.dim()
    }

    fn apply(&self, x: &DVector) -> DVector {
        let mut y = self.transposed.mul_vec(x);
        let n = y.len();
        for j in 0..n - 1 {
            y[j] *= self.scale[j];
        }
        y[n - 1] = x.iter().sum();
        y
    }
}

/// Builds the block-Jacobi preconditioner for the normalized system: the
/// trailing-axis diagonal blocks of `Gᵀ`, row-scaled like the system, with
/// the final block's last row overwritten by the normalization row's
/// restriction. Returns `None` when a block factorization is singular
/// (the unpreconditioned iteration still converges, just slower).
fn trailing_preconditioner(transposed: &KroneckerOp, scale: &[f64]) -> Option<BlockJacobi> {
    let mut blocks = transposed.trailing_blocks();
    let &n_last = transposed.dims().last()?;
    let n_blocks = blocks.len();
    for (p, block) in blocks.iter_mut().enumerate() {
        for r in 0..n_last {
            let global = p * n_last + r;
            let last_row_of_system = p == n_blocks - 1 && r == n_last - 1;
            for c in 0..n_last {
                if last_row_of_system {
                    block[(r, c)] = 1.0;
                } else {
                    block[(r, c)] *= scale[global];
                }
            }
        }
    }
    BlockJacobi::new(blocks).ok()
}

/// Solves `πG = 0, Σπ = 1` for the fleet's joint chain without ever
/// materializing `G`: the [`KroneckerOp`] built by
/// [`ClusterModel::joint_operator`] is the only representation touched.
///
/// # Errors
///
/// Propagates operator assembly failures, and [`ClusterError::Ctmc`] when
/// GMRES does not converge or the solution is not a distribution.
pub fn solve_joint_matrix_free(
    model: &ClusterModel,
    _options: &JointOptions,
) -> Result<JointSolution, ClusterError> {
    let op = model.joint_operator()?;
    let n = op.dim();
    let operator_bytes = op.storage_bytes();
    if n == 1 {
        return Ok(JointSolution {
            pi: DVector::constant(1, 1.0),
            iterations: 0,
            residual: 0.0,
            operator_bytes,
            escalated: false,
        });
    }
    let transposed = op.transpose();
    let diagonal = op.diagonal();
    let system = NormalizedOp::new(&transposed, &diagonal);
    let precond = trailing_preconditioner(&transposed, &system.scale);
    let m = precond.as_ref().map(|p| p as &dyn Precondition);
    let options = KrylovOptions::default();
    // The refinement floor scales with `‖|A|·|x|‖`, the reach of rounding
    // in `A·x`. Near a balanced distribution `x` a scaled row gives
    // `(|A|·|x|)_j = 2·x_j·|G_jj|/max(|G_jj|, 1) ≤ 2·x_j` (inflow equals
    // outflow) and the normalization row gives `Σ|x| = ‖b‖`, so 2 stands
    // in for `‖A‖∞`. The norm itself is far larger: instant rates into a
    // slow state of a SYS chain reach 1.2e6 times its exit rate.
    let a_norm = 2.0;
    let (pi, iterations) =
        stationary::solve_normalized(&system, a_norm, |rhs| gmres(&system, rhs, m, &options))?;
    // True balance residual against the untransformed operator: `πG`
    // evaluated as `Gᵀ π`.
    let residual = transposed.mul_vec(&pi).norm_inf();
    Ok(JointSolution {
        pi,
        iterations,
        residual,
        operator_bytes,
        escalated: precond.is_none(),
    })
}

/// Result of the materialized twin solve.
#[derive(Debug, Clone)]
pub struct MaterializedSolution {
    pi: DVector,
    matrix_bytes: usize,
    method: Method,
}

impl MaterializedSolution {
    /// The joint stationary distribution.
    #[must_use]
    pub fn pi(&self) -> &DVector {
        &self.pi
    }

    /// Bytes of the materialized CSR joint matrix — the dense side of the
    /// bench's peak-matrix-bytes axis.
    #[must_use]
    pub fn matrix_bytes(&self) -> usize {
        self.matrix_bytes
    }

    /// The stationary-solver method that produced the distribution.
    #[must_use]
    pub fn method(&self) -> Method {
        self.method
    }
}

/// Materializes the joint generator and solves it through the stock
/// [`Solver`] builder — the reference path the scaling bench gates the
/// matrix-free solve against at small `K`.
///
/// Gauss–Seidel leads the fallback chain: on the paper's greedy SYS
/// fleet the solve runs on a stiff closed class, where BiCGSTAB stops
/// 7e-10 from GTH at `K = 2` and stalls at `K = 3`, while Gauss–Seidel
/// agrees with GTH to ~1e-12 in tens of sweeps. GTH itself is the slower
/// lead here: the Kronecker pattern fills its elimination, 2.9 s on the
/// 4 096-state `K = 3` class against 0.027 s for Gauss–Seidel (2-vCPU
/// host).
///
/// # Errors
///
/// [`ClusterError::StateSpace`] when `n^K` is too large to materialize;
/// propagated solver failures otherwise.
pub fn solve_joint_materialized(
    model: &ClusterModel,
) -> Result<MaterializedSolution, ClusterError> {
    let op = model.joint_operator()?;
    let csr = op.materialize()?;
    let word = std::mem::size_of::<f64>();
    let matrix_bytes = csr.nnz() * 2 * word + (csr.nrows() + 1) * word;
    let mut transitions = Vec::new();
    for (i, j, v) in csr.iter() {
        if i != j && v > 0.0 {
            transitions.push((i, j, v));
        }
    }
    let generator = SparseGenerator::from_transitions(csr.nrows(), &transitions)?;
    let (pi, stats) = Solver::new(Method::Iterative)
        .with_default_fallback()
        .solve(&generator)?;
    Ok(MaterializedSolution {
        pi,
        matrix_bytes,
        method: stats.method(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_linalg::CsrMatrix;

    use crate::model::CouplingTerm;

    fn mm1k(n: usize, lambda: f64, mu: f64) -> SparseGenerator {
        let mut transitions = Vec::new();
        for i in 0..n - 1 {
            transitions.push((i, i + 1, lambda));
            transitions.push((i + 1, i, mu));
        }
        SparseGenerator::from_transitions(n, &transitions).unwrap()
    }

    fn coupled_fleet(k: usize) -> ClusterModel {
        let donor = CsrMatrix::from_triplets(3, 3, &[(2, 1, 1.0), (1, 0, 0.5)]).unwrap();
        let receiver = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
        ClusterModel::new(mm1k(3, 1.0, 2.0), k)
            .unwrap()
            .with_coupling(CouplingTerm::new(0.4, donor, receiver).unwrap())
            .unwrap()
    }

    #[test]
    fn matrix_free_matches_materialized_independent_fleet() {
        let model = ClusterModel::new(mm1k(4, 1.0, 2.0), 2).unwrap();
        let free = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
        let reference = solve_joint_materialized(&model).unwrap();
        for i in 0..free.pi().len() {
            assert!(
                (free.pi()[i] - reference.pi()[i]).abs() < 1e-10,
                "state {i}: {} vs {}",
                free.pi()[i],
                reference.pi()[i]
            );
        }
        assert!(free.residual() < 1e-8);
    }

    #[test]
    fn matrix_free_matches_materialized_coupled_fleet() {
        let model = coupled_fleet(3);
        let free = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
        assert!(!free.escalated());
        let reference = solve_joint_materialized(&model).unwrap();
        for i in 0..free.pi().len() {
            assert!(
                (free.pi()[i] - reference.pi()[i]).abs() < 1e-10,
                "state {i}: {} vs {}",
                free.pi()[i],
                reference.pi()[i]
            );
        }
    }

    #[test]
    fn unpreconditioned_solve_still_converges() {
        // State 0 has no local exit, and a server leaves it only as the
        // receiver of a donor in state 2. With the leading server in 0
        // the trailing block is the transposed local generator plus a
        // shift on state 2 alone; its column 0 is zero, so block Jacobi
        // cannot factor it and GMRES runs unpreconditioned. The one
        // closed class is both servers in state 0.
        let local =
            SparseGenerator::from_transitions(3, &[(1, 0, 1.0), (1, 2, 0.5), (2, 1, 2.0)]).unwrap();
        let donor = CsrMatrix::from_triplets(3, 3, &[(2, 1, 1.0)]).unwrap();
        let receiver = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0)]).unwrap();
        let model = ClusterModel::new(local, 2)
            .unwrap()
            .with_coupling(CouplingTerm::new(0.4, donor, receiver).unwrap())
            .unwrap();
        let plain = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
        assert!(plain.escalated());
        let reference = solve_joint_materialized(&model).unwrap();
        for i in 0..plain.pi().len() {
            assert!(
                (plain.pi()[i] - reference.pi()[i]).abs() < 1e-9,
                "state {i}: {} vs {}",
                plain.pi()[i],
                reference.pi()[i]
            );
        }
    }

    #[test]
    fn operator_storage_stays_factor_sized() {
        let model = coupled_fleet(6); // 729 joint states
        let free = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
        let reference = solve_joint_materialized(&model).unwrap();
        assert!(
            free.operator_bytes() < reference.matrix_bytes(),
            "{} !< {}",
            free.operator_bytes(),
            reference.matrix_bytes()
        );
    }
}
