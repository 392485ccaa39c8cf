//! Matrix-free stationary analysis of the joint fleet chain.
//!
//! The joint generator of a K-server fleet lives on `n^K` states; even at
//! `n = 6, K = 8` its materialized CSR form holds tens of millions of
//! entries, while the [`KroneckerOp`] form holds a few hundred factor
//! entries. This module solves `πG = 0, Σπ = 1` against the implicit
//! operator: the normalization-row system of `dpm-ctmc`'s Krylov tier is
//! rebuilt matrix-free (transpose the operator, equilibrate rows by the
//! diagonal, overwrite the last row with the normalization constraint) and
//! handed to the matrix-free BiCGSTAB / GMRES entry points with a
//! block-Jacobi preconditioner assembled from the operator's trailing
//! tensor axis.
//!
//! [`solve_joint_materialized`] is the self-check twin: it materializes
//! the same operator into a [`SparseGenerator`] and routes it through the
//! stock [`Solver`] builder. The scaling bench gates the two paths against
//! each other at small `K` before trusting the matrix-free numbers at
//! fleet scale.

use dpm_ctmc::stationary::{Method, Solver};
use dpm_ctmc::SparseGenerator;
use dpm_linalg::krylov::{bicgstab_op, gmres_op, KrylovOptions};
use dpm_linalg::{BlockJacobi, DVector, KroneckerOp, LinearOperator, Precondition};

use crate::error::ClusterError;
use crate::model::ClusterModel;

/// Krylov refinement sweeps after the initial matrix-free solve, matching
/// the refinement depth of the CSR-backed Krylov tier.
const REFINEMENT_STEPS: usize = 2;

/// Magnitude below which a negative stationary entry is treated as
/// round-off and clamped to zero.
const NEGATIVE_MASS_TOL: f64 = 1e-9;

/// Which Krylov method drives the matrix-free solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JointMethod {
    /// BiCGSTAB (default): short recurrences, constant memory.
    BiCgStab,
    /// Restarted GMRES(m): monotone residuals, `m` vectors of memory.
    Gmres,
}

/// Options for [`solve_joint_matrix_free`].
#[derive(Debug, Clone)]
pub struct JointOptions {
    /// Krylov method.
    pub method: JointMethod,
    /// Relative residual target.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// GMRES restart length.
    pub restart: usize,
    /// Assemble the trailing-axis block-Jacobi preconditioner. Costs
    /// `O(N/n · n²)` setup memory; disable for the very largest fleets.
    pub block_jacobi: bool,
}

impl Default for JointOptions {
    fn default() -> JointOptions {
        JointOptions {
            method: JointMethod::BiCgStab,
            tolerance: 1e-12,
            max_iterations: 20_000,
            restart: 60,
            block_jacobi: true,
        }
    }
}

/// Result of a matrix-free joint solve.
#[derive(Debug, Clone)]
pub struct JointSolution {
    pi: DVector,
    iterations: usize,
    residual: f64,
    operator_bytes: usize,
    preconditioned: bool,
    method: JointMethod,
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

    /// Whether the block-Jacobi preconditioner was in effect (it is
    /// skipped when a block factorization is singular).
    #[must_use]
    pub fn preconditioned(&self) -> bool {
        self.preconditioned
    }

    /// The Krylov method that actually produced the solution (the
    /// alternate method when the configured one stalled).
    #[must_use]
    pub fn method(&self) -> JointMethod {
        self.method
    }

    /// Whether the configured method stalled and the alternate Krylov
    /// method was substituted.
    #[must_use]
    pub fn escalated(&self) -> bool {
        self.escalated
    }
}

/// The normalization-row system over an implicit transposed generator:
/// row `j < n−1` is row `j` of `Gᵀ` scaled by `1/max(|G[j,j]|, 1)`, row
/// `n−1` is the all-ones normalization row. The diagonal stands in for
/// the exact row maximum (unavailable without materializing); for a
/// generator the diagonal carries the full exit rate, so it bounds every
/// incoming rate of the matching column up to the fan-in factor.
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

/// Normalizes a solution of the normalization-row system into a
/// probability distribution, clamping round-off negatives.
fn finish(mut x: DVector) -> Result<DVector, ClusterError> {
    for i in 0..x.len() {
        let v = x[i];
        if !v.is_finite() {
            return Err(ClusterError::Solve {
                reason: format!("stationary entry {i} is not finite"),
            });
        }
        if v < 0.0 {
            if v < -NEGATIVE_MASS_TOL {
                return Err(ClusterError::Solve {
                    reason: format!("stationary entry {i} = {v} is negative beyond round-off"),
                });
            }
            x[i] = 0.0;
        }
    }
    let sum = x.sum();
    if !sum.is_finite() || sum <= 0.0 {
        return Err(ClusterError::Solve {
            reason: format!("stationary solve produced probability mass {sum}"),
        });
    }
    x.scale_mut(1.0 / sum);
    Ok(x)
}

/// Solves `πG = 0, Σπ = 1` for the fleet's joint chain without ever
/// materializing `G`: the [`KroneckerOp`] built by
/// [`ClusterModel::joint_operator`] is the only representation touched.
///
/// # Errors
///
/// Propagates operator assembly failures; [`ClusterError::Solve`] when
/// the Krylov iteration breaks down or the solution is not a
/// distribution.
pub fn solve_joint_matrix_free(
    model: &ClusterModel,
    options: &JointOptions,
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
            preconditioned: false,
            method: options.method,
            escalated: false,
        });
    }
    let transposed = op.transpose();
    let diagonal = op.diagonal();
    let system = NormalizedOp::new(&transposed, &diagonal);
    let precond = if options.block_jacobi {
        trailing_preconditioner(&transposed, &system.scale)
    } else {
        None
    };
    let preconditioned = precond.is_some();
    let krylov_options = KrylovOptions {
        tolerance: options.tolerance,
        max_iterations: options.max_iterations,
        restart: options.restart,
    };
    let mut b = DVector::zeros(n);
    b[n - 1] = 1.0;
    let m: Option<&dyn Precondition> = precond.as_ref().map(|p| p as &dyn Precondition);
    let solve = |method: JointMethod, rhs: &DVector| match method {
        JointMethod::Gmres => gmres_op(&system, rhs, m, &krylov_options),
        JointMethod::BiCgStab => bicgstab_op(&system, rhs, m, &krylov_options),
    };
    // BiCGSTAB's irregular recurrence can stall a hair above a tight
    // tolerance on stiff generators; GMRES's monotone residuals (and
    // vice versa) make the alternate method a cheap rescue before
    // failing the whole solve.
    let alternate = match options.method {
        JointMethod::BiCgStab => JointMethod::Gmres,
        JointMethod::Gmres => JointMethod::BiCgStab,
    };
    let (first, method, escalated) = match solve(options.method, &b) {
        Ok(result) => (result, options.method, false),
        Err(primary) => match solve(alternate, &b) {
            Ok(result) => (result, alternate, true),
            Err(_) => {
                return Err(ClusterError::Solve {
                    reason: format!("matrix-free krylov solve failed: {primary}"),
                })
            }
        },
    };
    let mut x = first.solution;
    let mut iterations = first.iterations;
    // Iterative refinement against the true residual, mirroring the
    // CSR-backed Krylov tier: the forward error of a stiff solve sits
    // κ(A) above the recursion residual, and one or two correction solves
    // recover it.
    for _ in 0..REFINEMENT_STEPS {
        let r = &b - &system.apply(&x);
        if r.norm() <= f64::EPSILON * (1.0 + x.norm()) {
            break;
        }
        match solve(method, &r) {
            Ok(correction) => {
                x.axpy(1.0, &correction.solution);
                iterations += correction.iterations;
            }
            // Best effort: the uncorrected solution already passed the
            // solver's convergence gate.
            Err(_) => break,
        }
    }
    let pi = finish(x)?;
    // True balance residual against the untransformed operator: `πG`
    // evaluated as `Gᵀ π`.
    let residual = transposed.mul_vec(&pi).norm_inf();
    Ok(JointSolution {
        pi,
        iterations,
        residual,
        operator_bytes,
        preconditioned,
        method,
        escalated,
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
    fn gmres_path_agrees_with_bicgstab() {
        let model = coupled_fleet(2);
        let gmres = solve_joint_matrix_free(
            &model,
            &JointOptions {
                method: JointMethod::Gmres,
                ..JointOptions::default()
            },
        )
        .unwrap();
        let bicg = solve_joint_matrix_free(&model, &JointOptions::default()).unwrap();
        for i in 0..gmres.pi().len() {
            assert!((gmres.pi()[i] - bicg.pi()[i]).abs() < 1e-9, "state {i}");
        }
    }

    #[test]
    fn unpreconditioned_solve_still_converges() {
        let model = coupled_fleet(2);
        let plain = solve_joint_matrix_free(
            &model,
            &JointOptions {
                block_jacobi: false,
                ..JointOptions::default()
            },
        )
        .unwrap();
        assert!(!plain.preconditioned());
        let reference = solve_joint_materialized(&model).unwrap();
        for i in 0..plain.pi().len() {
            assert!(
                (plain.pi()[i] - reference.pi()[i]).abs() < 1e-9,
                "state {i}"
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
