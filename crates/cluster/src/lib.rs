//! Kronecker-factored cluster solver for K-server fleets.
//!
//! The single-machine layers of the workspace analyze one power-managed
//! server. This crate scales the analysis to a *fleet* of `K`
//! statistically identical servers without ever paying for the `n^K`
//! joint state space twice over:
//!
//! * [`ClusterModel`] — shared local generator plus pairwise
//!   [`CouplingTerm`] interactions, compiled to an implicit
//!   [`KroneckerOp`](dpm_linalg::KroneckerOp) whose storage is
//!   factor-sized;
//! * [`joint`] — matrix-free stationary analysis of the joint chain:
//!   block-Jacobi GMRES against the implicit operator, refined and
//!   finished by the CSR Krylov tier's routine, gated at small `K`
//!   against a materialized twin solve;
//! * [`MultisetIndex`] / [`lumped`] — exchangeability lumping onto
//!   occupancy vectors (`C(n+K−1, K)` states), solved through the stock
//!   stationary ladder and refined *exactly* back to the joint
//!   distribution;
//! * [`twolevel`] — a two-level controller: per-server CTMDP policies
//!   swept in parallel over `(load level, active count)`, coordinated by
//!   a cluster-level CTMDP that decides when to wake or park servers.
//!
//! # Example
//!
//! ```
//! use dpm_cluster::{solve_lumped, ClusterModel};
//! use dpm_ctmc::SparseGenerator;
//!
//! # fn main() -> Result<(), dpm_cluster::ClusterError> {
//! let local = SparseGenerator::from_transitions(2, &[(0, 1, 1.0), (1, 0, 2.0)])?;
//! let fleet = ClusterModel::new(local, 8)?;
//! let solution = solve_lumped(&fleet)?;
//! // 9 occupancy states stand in for 256 joint tuples.
//! assert_eq!(solution.index().len(), 9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod joint;
pub mod lumped;
mod model;
mod multiset;
pub mod twolevel;

pub use error::ClusterError;
pub use joint::{
    solve_joint_materialized, solve_joint_matrix_free, JointOptions, JointSolution,
    MaterializedSolution,
};
pub use lumped::{lumped_generator, solve_lumped, LumpedSolution};
pub use model::{ClusterModel, CouplingTerm};
pub use multiset::MultisetIndex;
pub use twolevel::{solve_two_level, ClusterSpec, TwoLevelSolution};

/// Schema identifier of the cluster scaling-bench artifact
/// (`results/BENCH_cluster.json`).
pub const CLUSTER_BENCH_FORMAT: &str = "dpm-cluster-bench/v1";
